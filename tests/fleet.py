"""Shared small-graph fixtures for oracle and engine tests.

Every fixture is a fully stamped ConnectivityGraph (positions, sinks,
per-link error and blockage probabilities) small enough for exhaustive
oracles.  Builders are deterministic; the random family uses fixed
seeds.
"""
from __future__ import annotations

from lanetsim.core import Position, distance
from lanetsim.routing import EstimationModel, RoutingState
from lanetsim.topology import (ConnectivityGraph, assign_blockage,
                               assign_error_probs, build_random)

CW = 5
B_MAX = 100


def stamp(graph: ConnectivityGraph, p_e: float = 0.2,
          p_b: float = 0.1) -> ConnectivityGraph:
    """Uniform channel parameters on every directed link."""
    for lk in graph.links.values():
        lk.p_e = p_e
        lk.p_b = p_b
    return graph


def chain(n: int, spacing: float = 1.0, p_e: float = 0.2,
          p_b: float = 0.1) -> ConnectivityGraph:
    """n nodes on a line, adjacent pairs linked, sink at the far end."""
    pos = [Position(i * spacing, 0.0) for i in range(n)]
    g = ConnectivityGraph(pos, sinks=[n - 1], n_sectors=4,
                          range_m=1.5 * spacing,
                          area_side_m=n * spacing)
    return stamp(g, p_e, p_b)


def diamond(p_e: float = 0.2, p_b: float = 0.1) -> ConnectivityGraph:
    """Two disjoint 2-hop routes source -> sink, no shortcut."""
    pos = [Position(0, 0), Position(1, 1), Position(1, -1), Position(2, 0)]
    g = ConnectivityGraph(pos, sinks=[3], n_sectors=4, range_m=1.5,
                          area_side_m=3.0)
    return stamp(g, p_e, p_b)


def lattice(rows: int, cols: int, spacing: float = 1.0,
            diagonal: bool = False, sinks=None) -> ConnectivityGraph:
    """Rectangular lattice with explicit spacing (axial or 8-neighbor)."""
    pos = [Position(c * spacing, r * spacing)
           for r in range(rows) for c in range(cols)]
    reach = (1.5 if diagonal else 1.1) * spacing
    if sinks is None:
        sinks = [rows * cols - 1]
    g = ConnectivityGraph(pos, sinks=sinks, n_sectors=4, range_m=reach,
                          area_side_m=max(rows, cols) * spacing)
    return stamp(g)


def random_graph(n: int, seed: int, n_sinks: int = 1) -> ConnectivityGraph:
    side = max(2.0, n ** 0.5 * 1.1)
    g = build_random(n, area_side_m=side, range_m=1.8, n_sinks=n_sinks,
                     seed=seed, n_sectors=4)
    assign_error_probs(g, 0.2, seed)
    assign_blockage(g, 0.25, 0.9, 0.05, seed)
    return g


def iter_forward_routes(graph, src, sink):
    """Second route enumerator: explicit-stack walk over the
    strictly-closer DAG.

    Kept deliberately independent of the library implementation so the
    two can cross-check each other.
    """
    sink_pos = graph.positions[sink]
    d = [distance(p, sink_pos) for p in graph.positions]
    succ = {i: [j for j in graph.out_neighbors(i) if d[j] < d[i]]
            for i in range(graph.n_nodes)}
    found = []
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        for j in succ[node]:
            if j == sink:
                found.append(path + (sink,))
            else:
                stack.append((j, path + (j,)))
    return sorted(found)


def fresh_states(graph: ConnectivityGraph,
                 estimation_error: float = 0.0) -> dict:
    """Unflooded routing states, built as the engine builds them."""
    est = EstimationModel(estimation_error, 5)
    return {i: RoutingState(i, graph, CW, B_MAX, est)
            for i in range(graph.n_nodes)}


def flooded_states(graph: ConnectivityGraph) -> dict:
    """Routing state after the engine's warm-up flood.

    Channel knowledge is exact, so the result is directly comparable to
    the fixed-point oracle.
    """
    from lanetsim.engine import flood_routing_tables

    states = fresh_states(graph)
    flood_routing_tables(graph, states)
    return states


def build_fleet() -> list[tuple[str, ConnectivityGraph]]:
    fleet: list[tuple[str, ConnectivityGraph]] = []
    for n in (2, 3, 4, 5, 7):
        fleet.append((f"chain{n}", chain(n)))
    fleet.append(("chain4-wide", chain(4, spacing=2.0, p_e=0.1, p_b=0.3)))
    fleet.append(("diamond", diamond()))
    fleet.append(("diamond-clean", diamond(p_e=0.0, p_b=0.0)))
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)):
        fleet.append((f"lat{rows}x{cols}", lattice(rows, cols)))
    fleet.append(("lat3x3-diag", lattice(3, 3, diagonal=True)))
    fleet.append(("lat4x4-2sink",
                  lattice(4, 4, diagonal=True, sinks=[0, 15])))
    for i, (n, seed) in enumerate(((8, 11), (12, 23), (16, 37), (20, 41),
                                   (25, 53), (25, 67))):
        fleet.append((f"rand{n}-{i}", random_graph(n, seed)))
    fleet.append(("rand15-2sink", random_graph(15, 71, n_sinks=2)))
    return fleet


FLEET = build_fleet()
SMALL = [(name, g) for name, g in FLEET if g.n_nodes <= 10]
