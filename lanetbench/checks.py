"""Correctness checks the benchmark applies to every simulation run.

Each check compares a run's output against a property the protocol
must have or against a value computed here, apart from the simulator:
the fixed point is derived from the graph and the per-link estimates
alone, and the reservation sweep reads the committed records and the
graph's links directly.  Every function returns a list of problem
strings; an empty list means the check passed.
"""
from __future__ import annotations

import math

INF = math.inf

# problems reported per check before the list is cut short
_MAX_PROBLEMS = 5


def conservation(offered: int, delivered: int, drops: int,
                 in_flight: int) -> list[str]:
    """Every offered packet is delivered, dropped, or still in flight."""
    if offered != delivered + drops + in_flight:
        return [f"packets not conserved: offered {offered} != delivered "
                f"{delivered} + drops {drops} + in flight {in_flight}"]
    return []


def exchange_bound(delivered: int, exchanges: int,
                   duplex: int) -> list[str]:
    """A delivery needs a data exchange; a duplex exchange carries two."""
    problems = []
    if duplex > exchanges:
        problems.append(f"duplex exchanges {duplex} exceed exchanges "
                        f"{exchanges}")
    if delivered > exchanges + duplex:
        problems.append(f"delivered {delivered} exceeds exchanges "
                        f"{exchanges} + duplex {duplex}")
    return problems


def _beams_into(links, x: int, x_beam: int, y: int, y_facing: int) -> bool:
    lk = links.get((x, y))
    return (lk is not None and lk.sector_at_tx == x_beam
            and lk.sector_at_rx == y_facing)


def reservation_safety(records, links) -> list[str]:
    """No node in two overlapping reservations, and no overlapping pair
    with one end beaming into a receiving sector of the other.

    `records` carry rid, initiator, acceptor, i_beam, a_beam, start and
    end (an interval [start, end) in microseconds); `links` maps
    (tx, rx) to an object with sector_at_tx and sector_at_rx.
    """
    problems = []
    active = []
    for res in sorted(records, key=lambda r: (r.start, r.rid)):
        active = [r for r in active if r.end > res.start]
        ends = ((res.initiator, res.i_beam), (res.acceptor, res.a_beam))
        for other in active:
            shared = {res.initiator, res.acceptor} & \
                {other.initiator, other.acceptor}
            if shared:
                problems.append(f"node {min(shared)} sits in overlapping "
                                f"reservations {other.rid} and {res.rid}")
            other_ends = ((other.initiator, other.i_beam),
                          (other.acceptor, other.a_beam))
            for x, xb in ends:
                for y, yb in other_ends:
                    if _beams_into(links, x, xb, y, yb) or \
                            _beams_into(links, y, yb, x, xb):
                        problems.append(
                            f"reservations {other.rid} and {res.rid} overlap "
                            f"and node {x} or {y} beams into the other")
            if len(problems) >= _MAX_PROBLEMS:
                return problems
        active.append(res)
    return problems


def rrs_fixed_point(graph, link_static, cw: int) -> dict:
    """Per-sink {node: (rrs, mhc)} every flooded table should hold.

    A node's hop count is one more than the smallest among neighbors
    strictly closer to the sink in Euclidean distance.  Its RRS is the
    best sector's 1 - prod(1 - p(i, j) * rrs_j) over neighbors j with a
    smaller hop count, taken in ascending id, where p(i, j) is the
    node's static estimate for the link times the access probability
    p0 * (1 - p0)^(m - 1), p0 = 2 / (cw + 1), and m counts j's
    neighbors in the sector facing i.  Empty buffers leave the backlog
    discount at 1.  `link_static[i]` maps neighbor j to node i's
    (1 - p_e) * (1 - p_b) estimate.
    """
    pos = graph.positions
    n = len(pos)
    ns = graph.n_sectors
    by_sector = [[[] for _ in range(ns)] for _ in range(n)]
    senders = [[] for _ in range(n)]
    for (i, j), lk in graph.links.items():
        by_sector[i][lk.sector_at_tx].append(j)
        senders[j].append(i)
    for per_node in by_sector:
        for lst in per_node:
            lst.sort()
    p0 = 2.0 / (cw + 1)
    p_link = {}
    for (i, j), lk in graph.links.items():
        m = max(1, len(by_sector[j][lk.sector_at_rx]))
        p_link[(i, j)] = link_static[i][j] * (p0 * (1.0 - p0) ** (m - 1))

    out = {}
    for k in graph.sinks:
        d = [math.hypot(p.x - pos[k].x, p.y - pos[k].y) for p in pos]
        hops = [INF] * n
        hops[k] = 0
        frontier = [k]
        while frontier:
            nxt = []
            for j in frontier:
                for i in senders[j]:
                    if hops[i] == INF and d[j] < d[i]:
                        hops[i] = hops[j] + 1
                        nxt.append(i)
            frontier = nxt
        rrs = [0.0] * n
        rrs[k] = 1.0
        for i in sorted(range(n), key=lambda v: hops[v]):
            if i == k or hops[i] == INF:
                continue
            best = 0.0
            for lst in by_sector[i]:
                miss = 1.0
                for j in lst:
                    if hops[j] < hops[i]:
                        miss *= 1.0 - p_link[(i, j)] * rrs[j]
                if 1.0 - miss > best:
                    best = 1.0 - miss
            rrs[i] = best
        out[k] = {i: (rrs[i], hops[i]) for i in range(n)}
    return out


def routing_tables(graph, link_static, snapshots, cw: int,
                   tol: float = 1e-9) -> list[str]:
    """Compare every node's flooded (RRS, MHC) table to the fixed point.

    `snapshots[i]` is node i's {sink: (rrs, mhc)} right after the flood.
    """
    problems = []
    for k, expected in rrs_fixed_point(graph, link_static, cw).items():
        for i, (exp_g, exp_h) in expected.items():
            got_g, got_h = snapshots[i][k]
            if got_h != exp_h or abs(got_g - exp_g) > tol:
                problems.append(f"node {i} sink {k}: table ({got_g!r}, "
                                f"{got_h}) != fixed point ({exp_g!r}, "
                                f"{exp_h})")
                if len(problems) >= _MAX_PROBLEMS:
                    return problems
    return problems
