"""Every configuration either fails at validation or runs to an end."""
import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanetsim.config import PROTOCOLS, ScenarioConfig
from lanetsim.engine import Simulation, build_topology, run

FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}
BAD_REALS = (-1.0, 0.0, math.inf, -math.inf, math.nan)


def maybe(valid, edges=BAD_REALS):
    """Mostly a value from `valid`; one draw in 32 from `edges`, values at
    or past a bound that `validate` sets."""
    return st.integers(0, 31).flatmap(
        lambda r: st.sampled_from(edges) if r == 0 else valid)


def id_list(ids):
    return ",".join(map(str, ids))


@st.composite
def config_fields(draw):
    """Every ScenarioConfig field, on grids of at most 4 x 4 and random
    deployments of at most 20 nodes, with caps of at most 0.2 s."""
    v = {
        "protocol": draw(maybe(st.sampled_from(PROTOCOLS), ("CSMA",))),
        "seed": draw(st.integers(0, 2**32)),
        "duration_cap_s": draw(maybe(st.floats(0.001, 0.2))),
        "stall_window_s": draw(maybe(st.floats(0.001, 0.5))),
        "topology": draw(maybe(st.sampled_from(("grid", "random", "file")),
                               ("ring",))),
        "rows": draw(maybe(st.integers(1, 4), (-1, 0))),
        "cols": draw(maybe(st.integers(1, 4), (-1, 0))),
        "area_side_m": draw(maybe(st.floats(1.0, 30.0))),
        "range_m": draw(maybe(st.floats(0.5, 20.0))),
        "n_sectors": draw(maybe(st.sampled_from((2, 4, 6, 8)), (0, 1, 3))),
        "sessions": draw(maybe(st.integers(1, 6), (0,))),
        "packets_per_session": draw(maybe(st.integers(1, 8), (0,))),
        "data_bytes": draw(maybe(st.sampled_from((100, 2500)), (-1, 0, 1))),
        "control_bytes": draw(maybe(st.sampled_from((8, 20)), (0, 1))),
        # the edges include rates so slow that no frame ends in the cap
        "link_rate_bps": draw(maybe(st.sampled_from((1_000_000, 10_000_000)),
                                    (0, 1, 10_000))),
        "retry_limit": draw(maybe(st.integers(0, 4), (-1,))),
        "b_max": draw(maybe(st.integers(1, 6) | st.just(100), (0,))),
        "backoff_utility_scale": draw(maybe(st.sampled_from(
            (0.0, 1e-300, 25.0, 1e300)))),
        "mean_p_e": draw(maybe(st.floats(0.0, 0.5), BAD_REALS + (0.6,))),
        "estimation_error": draw(maybe(st.floats(0.0, 0.99),
                                       BAD_REALS + (1.0,))),
    }
    # resolved to a saved deployment by the test
    v["graph_file"] = draw(maybe(st.just("saved"), ("",))
                           if v["topology"] == "file"
                           else st.sampled_from(("", "saved")))
    n_grid = max(v["rows"], 0) * max(v["cols"], 0)
    v["grid_sinks"] = draw(maybe(
        st.just("corners+center")
        | st.lists(st.integers(0, max(n_grid - 1, 0)), min_size=1,
                   max_size=3, unique=True).map(id_list),
        ("", "0,0", "99", "x")))
    v["n_nodes"] = draw(maybe(st.integers(2, 20), (0, 1)))
    v["n_sinks"] = draw(maybe(st.integers(1, max(v["n_nodes"] - 1, 1)),
                              (-1, 0, 20)))
    v["cms_per_slot"] = cms = draw(maybe(st.integers(4, 12), (0, 3)))
    v["cw"] = cw = draw(maybe(st.integers(1, max(cms - 3, 1)), (0,)))
    v["acn_window"] = draw(maybe(st.integers(1, max(cms - cw - 1, 1)),
                                 (0,)))
    v["csma_cw_min"] = lo = draw(maybe(st.integers(1, 16), (0,)))
    v["csma_cw_max"] = draw(maybe(st.integers(max(lo, 1), 64), (0,)))
    for name in ("severe_fraction", "p_b_severe", "p_b_mild"):
        v[name] = draw(maybe(st.floats(0.0, 1.0), BAD_REALS + (1.5,)))
    return v


STORED_SECTORS = 4


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "grid.json"
    build_topology(ScenarioConfig(
        rows=3, cols=4, area_side_m=8.0, grid_sinks="0,11",
        n_sectors=STORED_SECTORS)).save(str(path))
    return str(path)


@settings(max_examples=600, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_fields())
def test_config_fails_validation_or_runs_to_an_end(graph_file, values):
    assert values.keys() == FIELD_NAMES
    if values["graph_file"]:
        values = {**values, "graph_file": graph_file}
    cfg = ScenarioConfig(**values)
    try:
        cfg.validate()
    except ValueError:
        return
    if cfg.topology == "file" and cfg.n_sectors != STORED_SECTORS:
        # validation does not read the file; the build rejects it
        with pytest.raises(ValueError, match="sectors"):
            Simulation(cfg)
        return
    first = run(cfg)
    assert first.conservation_ok
    assert run(cfg).trace_hash == first.trace_hash
