"""The benchmark's behaviour digests, recomputed in-process.

`lanetbench/run.py` prints, per workload, a sha256 over every run's
trace hash; `lanetbench/README.md` records the values a change that
leaves behaviour alone must keep.  This runs each workload's cells
serially, without the benchmark's harness, and checks the digests
against the README.
"""
import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from lanetsim.cli import expand_sweep
from lanetsim.engine import Simulation

BENCH = Path(__file__).resolve().parent.parent / "lanetbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "lanetbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
README_DIGESTS = dict(re.findall(r"^digest (\S+) ([0-9a-f]{64})$",
                                 (BENCH / "README.md").read_text(),
                                 re.MULTILINE))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_digest_matches_readme(name):
    spec = workloads.make_spec(workloads.WORKLOADS[name], 1)
    lines = []
    for _, _, _, cfg in expand_sweep(spec):
        m = Simulation(cfg).run()
        lines.append(f"{cfg.protocol}-{int(cfg.sessions)}-{cfg.seed} "
                     f"{m.trace_hash}\n")
    got = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
    assert got == README_DIGESTS[name]
