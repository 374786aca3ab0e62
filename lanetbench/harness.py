"""The per-run stand-in for `lanetsim.cli.run_scenario`.

`lanetsim.cli.run_sweep` hands every (protocol, value, seed) cell to
`_sweep_task`, which calls `run_scenario(cfg)` and keeps only three
numbers of the result.  The benchmark replaces `run_scenario` with a
`Harness` for the length of a sweep.  The harness does what
`lanetsim.engine.run` does, `Simulation(cfg).run()`, and times the two
calls apart; in a checked round it also checks the routing tables
right after construction and the reservations after the run.  It
times the reference loop of `speed` before the construction, between
construction and run, and after the run, so each phase's host time can
be scaled to the machine's reference speed.  It writes one JSON record
per run into a directory, which is how records leave the worker
processes `run_sweep` forks.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import checks
import speed
from lanetsim.engine import Simulation


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def run_key(protocol: str, sessions, seed: int) -> str:
    return f"{protocol}-{int(sessions)}-{seed}"


class Harness:
    """Runs one simulation per call and leaves its record on disk."""

    def __init__(self, records_dir: Path):
        self.records_dir = records_dir
        self.round = 0
        self.full_checks = True
        self.tracer = None

    def _path(self, key: str) -> Path:
        return self.records_dir / f"{self.round}-{key}.json"

    def __call__(self, cfg, graph=None, trace_path=None):
        key = run_key(cfg.protocol, cfg.sessions, cfg.seed)
        rec = {"key": key, "protocol": cfg.protocol,
               "sessions": cfg.sessions, "seed": cfg.seed, "problems": []}
        tracer = self.tracer
        if tracer is not None:
            tracer.run_id = f"{self.round}:{key}"
        try:
            with tracer.span("bench.task") if tracer else nullcontext():
                return self._run(cfg, graph, trace_path, rec)
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if tracer is not None:
                rec["trace"] = tracer.take(tracer.run_id)
                tracer.run_id = None
            rec["rss_mb"] = _peak_rss_mb()
            with open(self._path(key), "w") as fh:
                json.dump(rec, fh)

    def _run(self, cfg, graph, trace_path, rec):
        problems = rec["problems"]
        loops = [speed.loop_seconds()]
        t0 = perf_counter()
        sim = Simulation(cfg, graph=graph, trace_path=trace_path)
        t1 = perf_counter()
        if self.full_checks and cfg.protocol == "VL-ROUTE":
            g = sim.graph
            problems += checks.routing_tables(
                g, [sim.nodes[i].routing.link_static
                    for i in range(g.n_nodes)],
                [sim.nodes[i].routing.snapshot() for i in range(g.n_nodes)],
                cfg.cw)
        t2 = perf_counter()
        loops.append(speed.loop_seconds())
        t3 = perf_counter()
        m = sim.run()
        t4 = perf_counter()
        drops = sum(m.drops.values())
        problems += checks.conservation(
            cfg.sessions * cfg.packets_per_session, m.delivered_total, drops,
            m.in_flight)
        problems += checks.exchange_bound(m.delivered_total,
                                          m.exchanges_total,
                                          m.duplex_exchanges)
        if self.full_checks:
            problems += checks.reservation_safety(sim.res_records,
                                                  sim.graph.links)
        if m.stalled:
            problems.append(f"stalled at {m.traffic_duration_us / 1e6:.3f} "
                            f"simulated s with {m.in_flight} in flight")
        t5 = perf_counter()
        loops.append(speed.loop_seconds())
        scale_setup = speed.REFERENCE_S * 2 / (loops[0] + loops[1])
        scale_run = speed.REFERENCE_S * 2 / (loops[1] + loops[2])
        rec.update({
            "setup_s": t1 - t0,
            "run_s": t4 - t3,
            "loop_s": sum(loops),
            "scale_setup": scale_setup,
            "scale_run": scale_run,
            # the run's host time outside the reference loops, scaled
            "task_s": t2 - t0 + t5 - t3,
            "task_ref_s": (t2 - t0) * scale_setup + (t5 - t3) * scale_run,
            "sim_s": m.traffic_duration_us / 1e6,
            "thr": m.normalized_throughput,
            "delivered": m.delivered_total,
            "duplex": m.duplex_exchanges,
            "exchanges": m.exchanges_total,
            "handshake_failures": m.handshake_failures,
            "cc_collisions": m.cc_collisions,
            "commit_aborts": m.commit_aborts,
            "drops": drops,
            "in_flight": m.in_flight,
            "events": m.events,
            "reservations": len(sim.res_records),
            "trace_hash": m.trace_hash,
        })
        return m

    def collect(self) -> list[dict]:
        """Read and remove the current round's records."""
        out = []
        for path in sorted(self.records_dir.glob(f"{self.round}-*.json")):
            with open(path) as fh:
                out.append(json.load(fh))
            os.remove(path)
        return out
