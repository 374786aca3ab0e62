"""Command-line front end.

Subcommands: `run` executes one seeded run and prints its metrics,
`sweep` fans a parameter sweep out over worker processes and aggregates
per (protocol, value) across seeds, `verify` floods routing tables on a
static deployment and checks them against the closed-form fixed point,
`export-graph` writes the channel-stamped deployment to JSON.

Exit codes: 0 on success, 1 on usage or input errors, 2 when `verify`
finds a table that disagrees with the fixed point.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
from dataclasses import replace

from .config import (PROTOCOLS, ScenarioConfig, SweepSpec, _convert,
                     _FIELD_TYPES, load_scenario, load_sweep)
from .engine import Simulation, build_topology
from .engine import run as run_scenario
from .reliability import (delivery_prob_oracle, protocol_link_probs,
                          rrs_fixed_point_oracle)

CSV_COLUMNS = ("protocol", "swept_param", "swept_value",
               "mean_norm_throughput", "sd_norm_throughput",
               "mean_duplex_ratio", "mean_delivered", "seeds")

# route enumeration behind the delivery cross-check is exponential in
# principle; only print it for graphs where it is obviously cheap
_DELIVERY_CHECK_MAX_NODES = 30


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for verify."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_config(args) -> ScenarioConfig:
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"--set expects field=value, got {item!r}")
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config field {key!r}")
        overrides[key] = _convert(key, raw.strip())
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "protocol", None) is not None:
        overrides["protocol"] = args.protocol
    if getattr(args, "config", None):
        return load_scenario(args.config, overrides)
    cfg = replace(ScenarioConfig(), **overrides)
    cfg.validate()
    return cfg


def _write_out(out, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def emit_tables(rows: list[dict], fmt: str) -> str:
    """Render aggregated sweep rows as csv or json text."""
    if not rows:
        raise ValueError("no rows to emit; every run failed to aggregate")
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return _csv_text(CSV_COLUMNS, rows)


def cmd_run(args) -> int:
    cfg = _build_config(args)
    metrics = run_scenario(cfg, trace_path=args.trace)
    doc = metrics.to_json_dict()
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        scalars = [(k, v) for k, v in sorted(doc.items())
                   if isinstance(v, (int, float, str, bool))]
        text = _csv_text([k for k, _ in scalars],
                         [dict(scalars)])
    _write_out(args.out, text)
    return 0


def _sweep_task(task):
    proto, value, seed, cfg = task
    try:
        m = run_scenario(cfg)
    except Exception as exc:
        raise RuntimeError(f"sweep run failed for protocol={proto} "
                           f"value={value} seed={seed}: {exc}") from exc
    return (proto, value, seed, m.normalized_throughput, m.duplex_ratio,
            m.delivered_total)


def expand_sweep(spec: SweepSpec) -> list[tuple]:
    """All (protocol, value, seed, config) cells of a sweep, in order."""
    tasks = []
    for proto in spec.protocols:
        for v in spec.values:
            override = {spec.parameter: spec.value_for(v)}
            for seed in range(1, spec.seeds + 1):
                cfg = replace(spec.base, protocol=proto, seed=seed,
                              **override)
                tasks.append((proto, float(v), seed, cfg))
    return tasks


def aggregate_sweep(spec: SweepSpec, results) -> list[dict]:
    """Fold per-run results into one row per (protocol, swept value).

    Results may arrive in any order (worker processes); rows are built
    in the spec's declared order with seeds sorted, so output bytes do
    not depend on scheduling.
    """
    by_cell: dict[tuple, list] = {}
    for proto, value, seed, thr, dup, dlv in results:
        by_cell.setdefault((proto, value), []).append((seed, thr, dup, dlv))
    rows = []
    for proto in spec.protocols:
        for v in spec.values:
            cell = sorted(by_cell.get((proto, float(v)), []))
            if not cell:
                continue
            thrs = [c[1] for c in cell]
            rows.append({
                "protocol": proto,
                "swept_param": spec.parameter,
                "swept_value": spec.value_for(v),
                "mean_norm_throughput": statistics.fmean(thrs),
                "sd_norm_throughput": (statistics.stdev(thrs)
                                       if len(thrs) > 1 else 0.0),
                "mean_duplex_ratio": statistics.fmean(c[2] for c in cell),
                "mean_delivered": statistics.fmean(c[3] for c in cell),
                "seeds": len(cell),
            })
    return rows


def run_sweep(spec: SweepSpec, jobs: int = 0) -> list[dict]:
    tasks = expand_sweep(spec)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        results = [_sweep_task(t) for t in tasks]
    else:
        # imported here: a serial sweep never loads the pool machinery
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            results = pool.map(_sweep_task, tasks, chunksize=1)
    return aggregate_sweep(spec, results)


def cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    rows = run_sweep(spec, jobs=args.jobs)
    _write_out(args.out, emit_tables(rows, args.format))
    return 0


def cmd_verify(args) -> int:
    cfg = replace(_build_config(args), protocol="VL-ROUTE")
    sim = Simulation(cfg)
    graph = sim.graph
    probs = protocol_link_probs(graph, cfg.cw)
    exact = cfg.estimation_error == 0.0
    failures = 0
    warnings = 0
    checked = 0
    max_dev = 0.0
    for k in graph.sinks:
        oracle = rrs_fixed_point_oracle(graph, k, probs, b_max=cfg.b_max)
        for i in range(graph.n_nodes):
            entry = sim.nodes[i].routing.entries[k]
            exp_g, exp_h = oracle[i]
            checked += 1
            if entry.mhc != exp_h:
                failures += 1
                print(f"FAIL node {i} sink {k}: hop count {entry.mhc} "
                      f"!= fixed point {exp_h}")
                continue
            dev = abs(entry.gamma - exp_g)
            if dev > max_dev:
                max_dev = dev
            if dev > 1e-9:
                if exact:
                    failures += 1
                    print(f"FAIL node {i} sink {k}: rrs {entry.gamma!r} "
                          f"!= fixed point {exp_g!r}")
                else:
                    warnings += 1
    print(f"verify: {checked} node-sink pairs checked, "
          f"max rrs deviation {max_dev:.3g}")
    if not exact and warnings:
        print(f"verify: {warnings} pairs beyond 1e-9 under estimation "
              f"error {cfg.estimation_error} (expected, not a failure)")
    if graph.n_nodes <= _DELIVERY_CHECK_MAX_NODES:
        for s in sim.sessions:
            p = delivery_prob_oracle(graph, s["source"], s["sink"], probs)
            g = sim.nodes[s["source"]].routing.entries[s["sink"]].gamma
            print(f"  session {s['sid']}: source {s['source']} sink "
                  f"{s['sink']} rrs {g:.6f} route-enumeration "
                  f"delivery {p:.6f}")
    if failures:
        print(f"verify: FAILED ({failures} mismatches)")
        return 2
    print("verify: OK")
    return 0


def cmd_export_graph(args) -> int:
    cfg = _build_config(args)
    graph = build_topology(cfg)
    graph.save(args.out)
    print(f"wrote {args.out}: {graph.n_nodes} nodes, "
          f"{len(graph.links)} directed links, {len(graph.sinks)} sinks")
    return 0


def _add_common(p, config_required=False):
    p.add_argument("--config", required=config_required,
                   help="scenario INI file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--protocol", choices=PROTOCOLS,
                   help="override the protocol under test")
    p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                   help="override any config field; repeatable")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lanetsim",
                     description="A packet-level simulator for visible-light "
                                 "ad hoc networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one seeded run")
    _add_common(p)
    p.add_argument("--out", help="write metrics here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--trace", help="also write the event trace to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep and aggregate")
    p.add_argument("--config", required=True, help="sweep INI file")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (default: all cores)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="check flooded routing tables against the "
                            "fixed point")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-graph", help="write the deployment as JSON")
    _add_common(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_export_graph)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
