"""Link, route, and route-set reliability calculus, plus reference oracles.

The closed-form pieces mirror the cross-layer model: a hop succeeds when
the packet survives channel errors, wins medium access, and is not
blocked; a route's reliability is the product of its hops; a node's
delivery probability toward a sink treats its forward-progress routes as
independent alternatives.  The fixed-point oracle computes the
route-reliability score (RRS) and minimum hop count (MHC) every node
should converge to after the control-plane flood, and exists so the
distributed implementation can be checked against it.
"""
from __future__ import annotations

import math

from .core import Position, distance
from .topology import ConnectivityGraph

INF = math.inf


def transmit_prob(cw: int) -> float:
    """Chance a node transmits in a given contention slot, 2 / (cw + 1)."""
    if cw < 1:
        raise ValueError("contention window must be >= 1")
    return 2.0 / (cw + 1)


def access_prob(cw: int, m: int) -> float:
    """Chance of winning access among m contenders (worst case, all backlogged).

    p0 * (1 - p0)^(m - 1) with p0 = transmit_prob(cw); m counts the
    contenders in the acceptor's facing sector, including the node itself.
    """
    if m < 1:
        raise ValueError("contender count must be >= 1")
    p0 = transmit_prob(cw)
    return p0 * (1.0 - p0) ** (m - 1)


def link_success_prob(p_e: float, p_acs: float, p_b: float) -> float:
    """Composite per-hop success: survive errors, win access, no blockage."""
    for name, v in (("p_e", p_e), ("p_acs", p_acs), ("p_b", p_b)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} outside [0, 1]")
    return (1.0 - p_e) * p_acs * (1.0 - p_b)


def route_reliability(route, link_probs) -> float:
    """Product of per-hop success probabilities along a node-id route."""
    p = 1.0
    for hop in zip(route, route[1:]):
        try:
            p *= link_probs[hop]
        except KeyError:
            raise KeyError(f"no link probability for hop {hop}") from None
    return p


def enumerate_forward_routes(graph: ConnectivityGraph, src: int,
                             sink: int) -> list[tuple[int, ...]]:
    """All simple routes src -> sink where every hop strictly reduces the
    Euclidean distance to the sink (ties are not forward progress).

    Exhaustive depth-first search; strictly decreasing distance already
    rules out revisits.  Intended for small oracle graphs, not for the
    full deployment.
    """
    if src == sink:
        return [(sink,)]
    sink_pos = graph.positions[sink]
    routes: list[tuple[int, ...]] = []
    path = [src]

    def walk(i: int, d_i: float):
        for j in graph.out_neighbors(i):
            d_j = distance(graph.positions[j], sink_pos)
            if d_j >= d_i:
                continue
            if j == sink:
                routes.append(tuple(path) + (sink,))
                continue
            path.append(j)
            walk(j, d_j)
            path.pop()

    walk(src, distance(graph.positions[src], sink_pos))
    return routes


def delivery_prob_oracle(graph: ConnectivityGraph, src: int, sink: int,
                         link_probs) -> float:
    """1 - prod(1 - p_r) over all forward-progress routes src -> sink.

    Routes are treated as independent alternatives, matching the model
    the protocol optimizes (not the exact reachability probability when
    routes share links).
    """
    if src == sink:
        return 1.0
    miss = 1.0
    for route in enumerate_forward_routes(graph, src, sink):
        miss *= 1.0 - route_reliability(route, link_probs)
    return 1.0 - miss


def mhc_map(graph: ConnectivityGraph, sink: int) -> dict[int, float]:
    """Minimum hop count to the sink over forward-progress links only.

    `sink` must be one of the graph's sinks, whose node distances the
    graph already holds.
    """
    if sink not in graph.sink_set:
        raise ValueError(f"node {sink} is not a sink of the graph")
    d_to = [near[sink] for near in graph.sink_dist]
    h = {i: INF for i in range(graph.n_nodes)}
    h[sink] = 0
    frontier = [sink]
    while frontier:
        nxt = []
        for j in frontier:
            # i can forward to j when j is strictly closer to the sink
            for i in graph.out_neighbors(j):
                if d_to[j] < d_to[i] and h[i] == INF:
                    h[i] = h[j] + 1
                    nxt.append(i)
        frontier = sorted(nxt)
    return h


def rrs_fixed_point_oracle(graph: ConnectivityGraph, sink: int, link_probs,
                           backlogs=None, b_max: int = 100):
    """Reference RRS/MHC values for every node toward one sink.

    Processes nodes in increasing-MHC order, so each node sees final
    values for every neighbor it may combine (the recursion only admits
    neighbors with strictly smaller MHC).  Per sector the miss
    probability is the product of (1 - p(i,j) * rrs_j) over admitted
    neighbors in ascending-id order; the node takes the best sector and
    scales by its buffer-occupancy factor.  Returns {node: (rrs, mhc)};
    the sink reports (1.0, 0).
    """
    backlogs = backlogs or {}
    h = mhc_map(graph, sink)
    gamma: dict[int, float] = {i: 0.0 for i in range(graph.n_nodes)}
    gamma[sink] = 1.0
    order = sorted((hi, i) for i, hi in h.items() if hi != INF and i != sink)
    for _, i in order:
        best = 0.0
        for sector in range(graph.n_sectors):
            miss = 1.0
            for j in graph.neighbors_in_sector(i, sector):
                if h[j] < h[i]:
                    miss *= 1.0 - link_probs[(i, j)] * gamma[j]
            val = 1.0 - miss
            if val > best:
                best = val
        beta = (b_max - backlogs.get(i, 0)) / b_max
        gamma[i] = beta * best
    return {i: (gamma[i], h[i]) for i in range(graph.n_nodes)}


def protocol_link_probs(graph: ConnectivityGraph, cw: int) -> dict:
    """Composite true hop probabilities for every directed link.

    Combines the link's channel parameters with the access probability
    the protocol would estimate: contenders for link i->j are the
    receiver's neighbors in the sector i occupies (including i).
    """
    probs = {}
    for (i, j), lk in graph.links.items():
        m = graph.sector_neighbor_count(j, lk.sector_at_rx)
        probs[(i, j)] = link_success_prob(lk.p_e, access_prob(cw, max(1, m)),
                                          lk.p_b)
    return probs
