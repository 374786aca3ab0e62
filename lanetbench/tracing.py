"""Per-layer tracing from outside the simulator.

`install` replaces public functions and methods of lanetsim's modules
with timing wrappers, in the namespaces where the engine looks them up
(the engine imports the mac functions by name, so those are wrapped in
`lanetsim.engine`).  Nothing inside `src/lanetsim` changes.

Two kinds of wrapper keep the trace small:

* layer boundaries called a few times per run (construction, the run
  loop, topology build, routing flood, the post-run sweeps) record a
  span: id, name, start, end, parent span, run id, the time covered by
  traced children, and a result size where one is meaningful;
* per-event calls (handshake decisions, table updates, queue
  operations) are aggregated per (run id, function, enclosing span
  name) into a call count, total time and, for predicates, the number
  of calls that returned true.

Both add their duration to the enclosing call's child time, so a
span's self time is its duration minus that.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# engine-namespace functions that run once or a few times per run
_COARSE_ENGINE = {
    "build_topology": ("topology.build", lambda g: len(g.links)),
    "flood_routing_tables": ("routing.flood", lambda rounds: rounds),
    "count_occupancy_conflicts": ("engine.occupancy_sweep", None),
    "mhc_map": ("reliability.mhc_map", None),
}
# engine-namespace functions called per event
_FINE_ENGINE = {
    "backoff_slots": "mac.backoff",
    "select_sector": "mac.select",
    "select_session_eta": "mac.select",
    "select_initiator": "mac.select",
    "greedy_next_hop": "mac.greedy",
    "substream": "rng.substream",
}
_FINE_ROUTING_METHODS = {
    "observe": ("routing.observe", lambda moved: moved is True),
    "recompute": ("routing.recompute", lambda res: bool(res[0])),
    "gamma_max": ("routing.gamma_max", None),
    "advertisement": ("routing.advertisement", None),
}
_FINE_MAC_METHODS = {"enqueue": "mac.enqueue", "dequeue": "mac.dequeue"}

# every per-layer metric `layer_metrics` derives, with its unit
LAYER_UNITS = {
    "engine.run_s": "s", "engine.self_s": "s", "engine.events": "count",
    "engine.us_per_event": "us", "engine.init_s": "s",
    "engine.exchanges": "count", "engine.handshake_failures": "count",
    "engine.cc_collisions": "count", "engine.commit_aborts": "count",
    "engine.handshake_yield": "ratio", "engine.occupancy_sweep_s": "s",
    "engine.reservations": "count",
    "routing.flood_s": "s", "routing.flood_rounds": "count",
    "routing.observe_calls": "count", "routing.observe_s": "s",
    "routing.observe_moved_ratio": "ratio",
    "routing.recompute_calls": "count", "routing.recompute_s": "s",
    "routing.recompute_changed_ratio": "ratio",
    "routing.gamma_max_calls": "count", "routing.gamma_max_s": "s",
    "routing.advertisement_calls": "count",
    "routing.advertisement_s": "s",
    "mac.backoff_calls": "count", "mac.backoff_s": "s",
    "mac.select_calls": "count", "mac.select_s": "s",
    "mac.greedy_calls": "count", "mac.enqueue_calls": "count",
    "mac.dequeue_calls": "count", "mac.dequeue_s": "s",
    "topology.build_s": "s", "topology.links": "count",
    "reliability.mhc_map_s": "s",
    "rng.substream_calls": "count", "rng.substream_s": "s",
    "cli.fanout_busy_ratio": "ratio", "cli.aggregate_s": "s",
}


class Tracer:
    """In-memory spans and per-call aggregates for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.fine: dict[tuple, list] = {}
        self.run_id = None
        self._next_id = 1
        root = [0, "root", 0.0]       # [span id, name, child seconds]
        self._stack = [root]
        self._coarse = [root]

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._coarse.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float, value) -> None:
        self._stack.pop()
        self._coarse.pop()
        parent = self._stack[-1]
        parent[2] += t1 - t0
        self.spans.append((frame[0], frame[1], t0, t1, parent[0],
                           self.run_id, frame[2], value))

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        frame = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, perf_counter(), None)

    def coarse(self, name: str, fn, size=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            t0 = perf_counter()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                self._close(frame, t0, perf_counter(),
                            size(res) if size and res is not None else None)
        wrapper.__wrapped__ = fn
        return wrapper

    def fine_call(self, name: str, fn, truth=None):
        stack = self._stack
        coarse = self._coarse
        fine = self.fine

        def wrapper(*args, **kwargs):
            frame = [0, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][2] += dt
                key = (self.run_id, name, coarse[-1][1])
                st = fine.get(key)
                if st is None:
                    st = fine[key] = [0, 0.0, 0]
                st[0] += 1
                st[1] += dt
            if truth is not None and truth(res):
                st[2] += 1
            return res
        wrapper.__wrapped__ = fn
        return wrapper

    def take(self, run_id) -> dict:
        """Remove and return everything recorded under one run id."""
        spans = [s for s in self.spans if s[5] == run_id]
        self.spans = [s for s in self.spans if s[5] != run_id]
        fine = [[name, phase] + st for (rid, name, phase), st
                in self.fine.items() if rid == run_id]
        for key in [k for k in self.fine if k[0] == run_id]:
            del self.fine[key]
        return {"spans": [list(s) for s in spans], "fine": fine}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap lanetsim's layer functions; returns what `uninstall` restores."""
    from lanetsim import cli, engine, mac, routing

    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    for attr, (name, size) in _COARSE_ENGINE.items():
        patch(engine, attr, tracer.coarse(name, getattr(engine, attr), size))
    for attr, name in _FINE_ENGINE.items():
        patch(engine, attr, tracer.fine_call(name, getattr(engine, attr)))
    patch(routing, "substream",
          tracer.fine_call("rng.substream", routing.substream))
    sim = engine.Simulation
    patch(sim, "__init__", tracer.coarse("engine.init", sim.__init__))
    patch(sim, "run", tracer.coarse("engine.run", sim.run))
    for attr, (name, truth) in _FINE_ROUTING_METHODS.items():
        patch(routing.RoutingState, attr,
              tracer.fine_call(name, getattr(routing.RoutingState, attr),
                               truth))
    for attr, name in _FINE_MAC_METHODS.items():
        patch(mac.MacNode, attr,
              tracer.fine_call(name, getattr(mac.MacNode, attr)))
    patch(cli, "aggregate_sweep",
          tracer.coarse("cli.aggregate", cli.aggregate_sweep))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, fine, records, jobs: int) -> dict:
    """Per-layer metrics of one round from its spans, aggregates and runs.

    `spans` and `fine` are the round's entries from every process;
    `records` are the round's per-run results (simulated counters come
    from the simulator's RunMetrics).  Per-event routing figures count
    only calls made inside Simulation.run; the flood is reported as its
    own span.
    """
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    size: dict[str, int] = {}
    name_of = {}
    for sid, name, t0, t1, parent, run_id, child, value in spans:
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child)
        if value is not None:
            size[name] = size.get(name, 0) + value
        name_of[(run_id, sid)] = name
    init_children = 0.0
    for sid, name, t0, t1, parent, run_id, child, value in spans:
        if name in ("topology.build", "routing.flood") and \
                name_of.get((run_id, parent)) == "engine.init":
            init_children += t1 - t0

    calls: dict[tuple, list] = {}
    for name, phase, n, secs, trues in fine:
        for key in ((name, None), (name, phase)):
            st = calls.setdefault(key, [0, 0.0, 0])
            st[0] += n
            st[1] += secs
            st[2] += trues

    def fine_stat(name, phase=None):
        return calls.get((name, phase), [0, 0.0, 0])

    def total(field):
        return sum(r[field] for r in records)

    events = total("events")
    exchanges = total("exchanges")
    failures = total("handshake_failures")
    observe = fine_stat("routing.observe", "engine.run")
    recompute = fine_stat("routing.recompute", "engine.run")
    gamma_max = fine_stat("routing.gamma_max", "engine.run")
    advert = fine_stat("routing.advertisement", "engine.run")
    backoff = fine_stat("mac.backoff")
    select = fine_stat("mac.select")
    dequeue = fine_stat("mac.dequeue")
    substream = fine_stat("rng.substream")
    return {
        "engine.run_s": dur.get("engine.run", 0.0),
        "engine.self_s": self_s.get("engine.run", 0.0),
        "engine.events": events,
        "engine.us_per_event": _ratio(dur.get("engine.run", 0.0) * 1e6,
                                      events),
        "engine.init_s": dur.get("engine.init", 0.0) - init_children,
        "engine.exchanges": exchanges,
        "engine.handshake_failures": failures,
        "engine.cc_collisions": total("cc_collisions"),
        "engine.commit_aborts": total("commit_aborts"),
        "engine.handshake_yield": _ratio(exchanges, exchanges + failures),
        "engine.occupancy_sweep_s": dur.get("engine.occupancy_sweep", 0.0),
        "engine.reservations": total("reservations"),
        "routing.flood_s": dur.get("routing.flood", 0.0),
        "routing.flood_rounds": size.get("routing.flood", 0),
        "routing.observe_calls": observe[0],
        "routing.observe_s": observe[1],
        "routing.observe_moved_ratio": _ratio(observe[2], observe[0]),
        "routing.recompute_calls": recompute[0],
        "routing.recompute_s": recompute[1],
        "routing.recompute_changed_ratio": _ratio(recompute[2],
                                                  recompute[0]),
        "routing.gamma_max_calls": gamma_max[0],
        "routing.gamma_max_s": gamma_max[1],
        "routing.advertisement_calls": advert[0],
        "routing.advertisement_s": advert[1],
        "mac.backoff_calls": backoff[0],
        "mac.backoff_s": backoff[1],
        "mac.select_calls": select[0],
        "mac.select_s": select[1],
        "mac.greedy_calls": fine_stat("mac.greedy")[0],
        "mac.enqueue_calls": fine_stat("mac.enqueue")[0],
        "mac.dequeue_calls": dequeue[0],
        "mac.dequeue_s": dequeue[1],
        "topology.build_s": dur.get("topology.build", 0.0),
        "topology.links": size.get("topology.build", 0),
        "reliability.mhc_map_s": dur.get("reliability.mhc_map", 0.0),
        "rng.substream_calls": substream[0],
        "rng.substream_s": substream[1],
        "cli.fanout_busy_ratio": _ratio(dur.get("bench.task", 0.0),
                                        dur.get("cli.run_sweep", 0.0) * jobs),
        "cli.aggregate_s": dur.get("cli.aggregate", 0.0),
    }


def median_metrics(per_round: list[dict]) -> dict:
    """Median of each per-layer metric over the traced rounds."""
    return {name: statistics.median(m[name] for m in per_round)
            for name in per_round[0]}
