"""Command-line front end: subcommands, formats, exit codes."""
import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lanetsim import cli, engine
from lanetsim.cli import CSV_COLUMNS, main
from lanetsim.config import ScenarioConfig, SweepSpec

FAST = ["--set", "sessions=1", "--set", "packets_per_session=5",
        "--set", "duration_cap_s=0.2"]

SMALL_GRID = ["--set", "rows=3", "--set", "cols=3",
              "--set", "area_side_m=7.5", "--set", "grid_sinks=8"]


def test_run_emits_json(tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["run", *FAST, "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["protocol"] == "VL-ROUTE"
    assert doc["seed"] == 4
    assert doc["generated"] == 5
    assert doc["conservation_ok"] is True
    assert "normalized_throughput" in doc
    # reservation safety is enforced at the commit gate, not re-counted
    assert "occupancy_conflicts" not in doc


def test_run_emits_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(["run", *FAST, "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["protocol"] == "VL-ROUTE"
    assert float(rows[0]["normalized_throughput"]) >= 0.0


def test_run_writes_trace(tmp_path):
    out = tmp_path / "m.json"
    trace = tmp_path / "events.log"
    assert main(["run", *FAST, "--trace", str(trace),
                 "--out", str(out)]) == 0
    assert trace.stat().st_size > 0
    assert json.loads(out.read_text())["trace_hash"]


def test_protocol_override(tmp_path):
    out = tmp_path / "m.json"
    assert main(["run", *FAST, "--protocol", "GR-CSMA",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["protocol"] == "GR-CSMA"


def test_unknown_set_field_exits_one(capsys):
    assert main(["run", "--set", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_error_rate_above_half_fails_validation(capsys, monkeypatch):
    def no_build(cfg):
        raise AssertionError("topology built before validation")

    monkeypatch.setattr(engine, "build_topology", no_build)
    monkeypatch.setattr(cli, "build_topology", no_build)
    assert main(["run", "--set", "mean_p_e=0.6"]) == 1
    assert "mean_p_e must lie in [0, 0.5]" in capsys.readouterr().err


def test_slot_too_short_fails_validation(capsys, monkeypatch):
    # cw 5 + acn_window 3 + RES needs 9 CMS; the default slot has 8
    def no_build(cfg):
        raise AssertionError("topology built before validation")

    monkeypatch.setattr(engine, "build_topology", no_build)
    monkeypatch.setattr(cli, "build_topology", no_build)
    assert main(["run", "--set", "acn_window=3"]) == 1
    assert "slot too short for cw + acn_window + RES" in \
        capsys.readouterr().err
    spec = SweepSpec("sessions", [1.0], base=ScenarioConfig(acn_window=3))
    with pytest.raises(ValueError, match="slot too short"):
        spec.validate()


CRASHING_SETTINGS = [
    ("link_rate_bps=0", "link_rate_bps must be >= 1"),
    ("control_bytes=0", "control_bytes must be >= 1"),
    ("data_bytes=0", "data_bytes must be >= 1"),
    ("retry_limit=-1", "retry_limit must be >= 0"),
    ("backoff_utility_scale=-5", "backoff_utility_scale must be >= 0"),
    ("grid_sinks=0,0", "grid_sinks repeats a node id"),
    ("grid_sinks=", "grid_sinks names no sink"),
    ("grid_sinks=0;9", "grid_sinks must be 'corners+center' or node ids"),
    ("topology=random n_sinks=0", "n_sinks must be >= 1"),
    ("topology=random n_nodes=5 n_sinks=5", "n_sinks must leave a non-sink"),
    ("topology=random n_nodes=5 n_sinks=9", "n_sinks must leave a non-sink"),
    ("duration_cap_s=0", "duration_cap_s must be > 0"),
    ("duration_cap_s=-1", "duration_cap_s must be > 0"),
    ("duration_cap_s=inf", "duration_cap_s must be > 0 and finite"),
    ("area_side_m=0", "area_side_m must be > 0"),
    ("area_side_m=inf", "area_side_m must be > 0 and finite"),
    ("range_m=nan", "range_m must be > 0 and finite"),
    ("range_m=0", "range_m must be > 0"),
    ("range_m=-1", "range_m must be > 0"),
    ("stall_window_s=0", "stall_window_s must be > 0"),
    ("stall_window_s=-1", "stall_window_s must be > 0"),
    ("stall_window_s=inf", "stall_window_s must be > 0 and finite"),
    ("rows=0", "grid needs at least one row and one column"),
    ("cols=-2", "grid needs at least one row and one column"),
    ("grid_sinks=100", "grid_sinks names node 100, outside the grid's 0..99"),
    ("grid_sinks=-1", "grid_sinks names node -1, outside the grid's 0..99"),
    ("rows=1 cols=1", "grid needs a non-sink node"),
    ("rows=2 cols=2", "grid needs a non-sink node"),
    ("rows=1 cols=2 grid_sinks=1,0", "grid needs a non-sink node"),
]


@pytest.mark.parametrize("setting,message", CRASHING_SETTINGS,
                         ids=[s for s, _ in CRASHING_SETTINGS])
def test_setting_that_would_crash_a_run_exits_one(setting, message, capsys,
                                                  monkeypatch):
    def no_build(cfg):
        raise AssertionError("topology built before validation")

    monkeypatch.setattr(engine, "build_topology", no_build)
    monkeypatch.setattr(cli, "build_topology", no_build)
    # a case may set several fields, separated by spaces
    sets = [arg for field in setting.split() for arg in ("--set", field)]
    assert main(["run", *FAST, *sets]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_bad_protocol_value_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--protocol", "NOT-A-PROTOCOL"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def child_env():
    """The environment of a child process that imports the package this
    test run imported, from its source root, whatever PYTHONPATH the run
    started with."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def sweep_ini(tmp_path, extra=""):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[scenario]\n"
        "duration_cap_s = 0.2\n"
        "[traffic]\n"
        "packets_per_session = 5\n"
        "[sweep]\n"
        "parameter = sessions\n"
        "values = 1 2\n"
        "seeds = 2\n"
        "protocols = VL-ROUTE, GR-CSMA\n"
        + extra)
    return str(path)


def test_sweep_emits_declared_columns(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", sweep_ini(tmp_path),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 4                     # 2 protocols x 2 values
    assert {r["protocol"] for r in rows} == {"VL-ROUTE", "GR-CSMA"}
    assert all(r["seeds"] == "2" for r in rows)
    assert all(r["swept_param"] == "sessions" for r in rows)


def test_sweep_output_is_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    ini = sweep_ini(tmp_path)
    assert main(["sweep", "--config", ini, "--out", str(a)]) == 0
    assert main(["sweep", "--config", ini, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "table.json"
    assert main(["sweep", "--config", sweep_ini(tmp_path), "--format",
                 "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert all(set(CSV_COLUMNS) <= set(r) for r in rows)


def test_serial_sweep_never_loads_the_process_pool(tmp_path):
    code = ("import sys\n"
            "from lanetsim import cli\n"
            "from lanetsim.config import load_sweep\n"
            f"rows = cli.run_sweep(load_sweep({sweep_ini(tmp_path)!r}), "
            "jobs=1)\n"
            "print(len(rows), 'multiprocessing' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "False"]


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[sweep]\nparameter = rows\nvalues = 1\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "sweep parameter" in capsys.readouterr().err


def test_verify_ok_on_exact_grid(capsys):
    assert main(["verify", *SMALL_GRID, "--set", "estimation_error=0"]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out
    assert "max rrs deviation" in out


def test_verify_tolerates_estimation_noise(capsys):
    assert main(["verify", *SMALL_GRID,
                 "--set", "estimation_error=0.3"]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out
    assert "not a failure" in out


def test_export_graph_round_trips(tmp_path, capsys):
    out = tmp_path / "deploy.json"
    assert main(["export-graph", *SMALL_GRID, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 9
    assert doc["sinks"] == [8]


def test_one_way_graph_file_exits_one_before_any_run(tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "grid.json"
    assert main(["export-graph", "--set", "rows=4", "--set", "cols=4",
                 "--set", "area_side_m=10", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    kept = [rec for rec in doc["links"] if (rec["tx"], rec["rx"]) != (7, 11)]
    assert len(kept) == len(doc["links"]) - 1
    doc["links"] = kept
    path.write_text(json.dumps(doc))
    capsys.readouterr()

    def no_run(self):
        raise AssertionError("run started on a malformed graph")

    monkeypatch.setattr(engine.Simulation, "run", no_run)
    out = tmp_path / "m.json"
    assert main(["run", "--set", "topology=file", "--set",
                 f"graph_file={path}", "--out", str(out)]) == 1
    assert "link (11, 7) is listed without its reverse (7, 11)" in \
        capsys.readouterr().err
    assert not out.exists()


def test_graph_file_with_other_sectors_exits_one(tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert main(["export-graph", "--set", "n_sectors=8", "--out",
                 str(path)]) == 0
    capsys.readouterr()
    assert main(["run", *FAST, "--set", "topology=file", "--set",
                 f"graph_file={path}"]) == 1
    err = capsys.readouterr().err
    assert "error: the deployment has 8 sectors, the config n_sectors=4" \
        in err
    assert "Traceback" not in err


def test_export_graph_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["export-graph"])
    assert exc.value.code == 1


def test_module_runs_standalone(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lanetsim.cli", "run", *FAST,
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["generated"] == 5
