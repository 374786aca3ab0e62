"""The package's public names."""
import lanetsim


def test_every_exported_name_resolves():
    missing = [name for name in lanetsim.__all__
               if not hasattr(lanetsim, name)]
    assert missing == []
    assert len(set(lanetsim.__all__)) == len(lanetsim.__all__)
