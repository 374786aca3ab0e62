"""Run one benchmark workload and print its metrics as JSON.

    python3 lanetbench/run.py --workload desk-sweep --seed 1 --seconds 10 --trace 0

A run first executes the workload's whole sweep once with every
correctness check (the checked round, which also gives the cold
set-up time), then repeats the sweep until `--seconds` of host time
have been spent in repeats, comparing every repeated simulation with
its checked twin.  With `--trace 0` the last line holds the end-to-end
metrics, measured on the repeats; with `--trace 1` the repeats are
traced and the last line holds the per-layer metrics.  An operation is
one simulation run and its checks.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s_per_host_s": "s/s",
    "peak_rss_mb": "MB",
    "vl_route_thr": "normalized",
    "vl_route_delivered": "packets",
    "vl_route_duplex": "exchanges",
}
# fields of a run that a repeat must reproduce exactly
_REPEAT_FIELDS = ("trace_hash", "delivered", "duplex", "exchanges",
                  "handshake_failures", "drops", "in_flight", "events")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_lanetsim():
    """Import lanetsim from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    if not (src / "lanetsim" / "__init__.py").is_file():
        raise ImportError(f"no lanetsim sources under {src}")
    sys.path.insert(0, str(src))
    import lanetsim
    if Path(lanetsim.__file__).resolve().parent != src / "lanetsim":
        raise ImportError(f"lanetsim imported from {lanetsim.__file__}, "
                          f"not from {src}")


@dataclass
class Round:
    """One pass of the workload's sweep and what came back from it."""

    number: int
    wall: float                 # elapsed host seconds of run_sweep
    rows: list | None           # run_sweep's aggregated rows
    error: str | None           # why run_sweep gave up, if it did
    records: dict               # run key -> the harness's record
    parent_trace: dict | None   # spans recorded in this process

    def ref_wall(self, jobs: int) -> float:
        """Elapsed time of the sweep at the reference machine speed.

        The reference loops ran inside the sweep, so their time (spread
        over the workers) comes off first; the rest is scaled by the
        runs' scales, each weighted by its run's host time.
        """
        recs = [r for r in self.records.values() if "task_s" in r]
        scale = (sum(r["task_ref_s"] for r in recs)
                 / sum(r["task_s"] for r in recs))
        return (self.wall - sum(r["loop_s"] for r in recs) / jobs) * scale


def run_round(number, cli, spec, jobs, harness, tracer, full_checks):
    harness.round = number
    harness.full_checks = full_checks
    harness.tracer = tracer
    rows = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rows = cli.run_sweep(spec, jobs=jobs)
        else:
            with tracer.span("cli.run_sweep"):
                rows = cli.run_sweep(spec, jobs=jobs)
    except RuntimeError as exc:   # a run raised and run_sweep gave up
        error = str(exc)
    wall = time.perf_counter() - t0
    records = {r["key"]: r for r in harness.collect()}
    parent_trace = tracer.take(None) if tracer is not None else None
    return Round(number, wall, rows, error, records, parent_trace)


def failed_ops(rnd, keys, reference):
    """Keys of the round's runs that raised, failed a check or differ
    from their checked twin; prints why."""
    failed = []
    for key in keys:
        rec = rnd.records.get(key)
        if rec is None:
            why = [rnd.error or "no record came back"]
        elif "error" in rec:
            why = [rec["error"]]
        else:
            why = list(rec["problems"])
            ref = reference.get(key) if reference else None
            if ref is not None:
                why += [f"{f} {rec[f]!r} != checked run's {ref[f]!r}"
                        for f in _REPEAT_FIELDS if rec[f] != ref[f]]
        if why:
            failed.append(key)
            for line in why:
                print(f"round {rnd.number} {key}: {line}", file=sys.stderr)
    return failed


def aggregation_problems(rnd, spec):
    """Compare run_sweep's aggregated rows with the runs' own results."""
    if rnd.rows is None:
        return []
    problems = []
    if len(rnd.rows) != len(spec.protocols) * len(spec.values):
        problems.append(f"{len(rnd.rows)} aggregated rows for "
                        f"{len(spec.protocols)} protocols x "
                        f"{len(spec.values)} values")
    for row in rnd.rows:
        cell = sorted((r for r in rnd.records.values()
                       if r["protocol"] == row["protocol"]
                       and r["sessions"] == row["swept_value"]
                       and "thr" in r), key=lambda r: r["seed"])
        want = (len(cell),
                statistics.fmean(r["thr"] for r in cell) if cell else None,
                statistics.fmean(r["delivered"] for r in cell)
                if cell else None)
        got = (row["seeds"], row["mean_norm_throughput"],
               row["mean_delivered"])
        if got != want:
            problems.append(f"row {row['protocol']} sessions="
                            f"{row['swept_value']}: (seeds, throughput, "
                            f"delivered) {got} != runs' {want}")
    return problems


def digest(records) -> str:
    lines = "".join(f"{k} {records[k]['trace_hash']}\n"
                    for k in sorted(records) if "trace_hash" in records[k])
    return hashlib.sha256(lines.encode()).hexdigest()


def protocol_summary(records) -> dict:
    out = {}
    for proto in sorted({r["protocol"] for r in records.values()}):
        runs = [r for r in records.values()
                if r["protocol"] == proto and "thr" in r]
        if runs:
            out[proto] = {
                "thr": statistics.fmean(r["thr"] for r in runs),
                "delivered": sum(r["delivered"] for r in runs),
                "duplex": sum(r["duplex"] for r in runs),
                "runs": len(runs),
            }
    return out


def end_to_end(checked, timed, jobs, import_s):
    vl = [r for r in checked.records.values()
          if r["protocol"] == "VL-ROUTE" and "thr" in r]
    recs = [r for rnd in [checked] + timed for r in rnd.records.values()]
    values = {
        "wall_s": statistics.median(r.ref_wall(jobs) for r in timed),
        "setup_s": import_s + sum(r["setup_s"] * r["scale_setup"]
                                  for r in checked.records.values()
                                  if "setup_s" in r),
        "sim_s_per_host_s": statistics.median(
            sum(r["sim_s"] for r in rnd.records.values() if "sim_s" in r)
            / sum(r["run_s"] * r["scale_run"] for r in rnd.records.values()
                  if "run_s" in r)
            for rnd in timed),
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
        "vl_route_thr": statistics.fmean(r["thr"] for r in vl),
        "vl_route_delivered": sum(r["delivered"] for r in vl),
        "vl_route_duplex": sum(r["duplex"] for r in vl),
    }
    return {name: {"value": values[name], "unit": E2E_UNITS[name]}
            for name in E2E_UNITS}


def per_layer(timed, jobs):
    per_round = []
    for rnd in timed:
        spans = list(rnd.parent_trace["spans"])
        fine = list(rnd.parent_trace["fine"])
        for rec in rnd.records.values():
            spans += rec.get("trace", {}).get("spans", [])
            fine += rec.get("trace", {}).get("fine", [])
        per_round.append(tracing.layer_metrics(
            spans, fine, [r for r in rnd.records.values() if "events" in r],
            jobs))
    values = tracing.median_metrics(per_round)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()}


def write_trace(path, timed):
    with open(path, "w") as fh:
        for rnd in timed:
            traces = [rnd.parent_trace] + [r.get("trace", {})
                                           for r in rnd.records.values()]
            for tr in traces:
                for s in tr.get("spans", []):
                    fh.write(json.dumps({
                        "round": rnd.number, "span": s[0], "name": s[1],
                        "start": s[2], "end": s[3], "parent": s[4],
                        "run": s[5], "child_s": s[6], "size": s[7]}) + "\n")
                for name, phase, n, secs, trues in tr.get("fine", []):
                    fh.write(json.dumps({
                        "round": rnd.number, "calls": name, "within": phase,
                        "n": n, "s": secs, "true": trues}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_lanetsim()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from lanetsim import cli

    import harness as harness_mod
    import workloads
    import_s = (time.perf_counter() - T_START) * (speed.REFERENCE_S
                                                  / speed.loop_seconds(3))

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.make_spec(workload, args.seed)
    jobs = workloads.jobs_for(workload)
    keys = sorted(harness_mod.run_key(proto, value, seed)
                  for proto, value, seed, _ in cli.expand_sweep(spec))

    records_dir = OUT / f"records-{os.getpid()}"
    records_dir.mkdir(parents=True, exist_ok=True)
    harness = harness_mod.Harness(records_dir)
    tracer = tracing.Tracer() if args.trace else None
    original_run = cli.run_scenario
    cli.run_scenario = harness
    saved = []
    rounds = []
    failed = 0
    problems = []
    try:
        checked = run_round(1, cli, spec, jobs, harness, None, True)
        rounds.append(checked)
        reference = {k: r for k, r in checked.records.items()
                     if "trace_hash" in r}
        if tracer is not None:
            saved = tracing.install(tracer)
        spent = 0.0
        while rounds[-1].error is None and (len(rounds) == 1
                                            or spent < args.seconds):
            rnd = run_round(len(rounds) + 1, cli, spec, jobs, harness,
                            tracer, False)
            rounds.append(rnd)
            spent += rnd.wall
        for rnd in rounds:
            failed += len(failed_ops(rnd, keys, reference))
            problems += aggregation_problems(rnd, spec)
    finally:
        tracing.uninstall(saved)
        cli.run_scenario = original_run
        shutil.rmtree(records_dir, ignore_errors=True)

    for line in problems:
        print(f"aggregation: {line}", file=sys.stderr)
    timed = rounds[1:]
    summary = protocol_summary(checked.records)
    for proto, s in summary.items():
        print(f"{workload.name} {proto}: mean normalized throughput "
              f"{s['thr']:.4f} over {s['runs']} runs, delivered "
              f"{s['delivered']}, duplex exchanges {s['duplex']}")
    print(f"digest {workload.name} {digest(checked.records)}")
    print(f"rounds {len(rounds)} (1 checked); per repeat host s -> "
          "reference s: " + " ".join(f"{r.wall:.3f}->{r.ref_wall(jobs):.3f}"
                                     for r in timed if r.records))

    ok = failed == 0 and not problems
    try:
        if args.trace:
            metrics = per_layer(timed, jobs)
            write_trace(OUT / f"trace-{workload.name}-s{args.seed}.jsonl",
                        timed)
        else:
            metrics = end_to_end(checked, timed, jobs, import_s)
    except (ValueError, KeyError, ZeroDivisionError,
            statistics.StatisticsError) as exc:
        print(f"error: metrics unavailable: {exc}", file=sys.stderr)
        return 1
    result = {"correct": ok,
              "attempted": len(rounds) * len(keys),
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}"
              ".json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "protocols": summary, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
