"""Connectivity graph construction: grid and random deployments.

A graph holds node positions, the designated sink subset, and the
directed feasible links (every pair within transmission range, both
directions).  Channel parameters (error rate, blockage class) are
stamped onto the links by the assign_* helpers after construction so a
single geometry can carry different channel configurations.
"""
from __future__ import annotations

import json
import math
import random
from functools import cached_property

from .core import DirectedLink, Position, distance, sector_of


class ConnectivityGraph:
    """Static deployment geometry plus per-link channel parameters.

    Mutated only during construction (builders and assign_* helpers);
    treated as read-only by the engine so runs can share one instance.
    """

    def __init__(self, positions, sinks, n_sectors, range_m, area_side_m,
                 links=None, capacity_bps=10_000_000.0):
        self.positions: list[Position] = list(positions)
        self.sinks: list[int] = sorted(sinks)
        self.n_sectors = n_sectors
        self.range_m = range_m
        self.area_side_m = area_side_m
        n = len(self.positions)
        for s in self.sinks:
            if not 0 <= s < n:
                raise ValueError(f"sink id {s} outside node range")
        if links is None:
            links = self._feasible_links(capacity_bps)
        self.links: dict[tuple[int, int], DirectedLink] = links
        self._index()

    # -- construction ------------------------------------------------

    def _feasible_links(self, capacity_bps):
        """Both directions of every pair within range, pairs ascending.

        Nodes are bucketed into square cells slightly wider than
        range_m, so a pair within range lies in the same or adjacent
        cells; the slack keeps that true under float rounding of the
        cell indices.
        """
        positions = self.positions
        r = self.range_m
        side = r * (1.0 + 1e-6) if r > 0.0 else 1.0
        cell_of = [(math.floor(p.x / side), math.floor(p.y / side))
                   for p in positions]
        cells: dict[tuple[int, int], list[int]] = {}
        for i, c in enumerate(cell_of):
            cells.setdefault(c, []).append(i)
        links = {}
        for i, (cx, cy) in enumerate(cell_of):
            near = [j for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    for j in cells.get((cx + dx, cy + dy), ()) if j > i]
            near.sort()
            pi = positions[i]
            for j in near:
                pj = positions[j]
                if distance(pi, pj) <= r:
                    s_ij = sector_of(pi, pj, self.n_sectors)
                    s_ji = sector_of(pj, pi, self.n_sectors)
                    links[(i, j)] = DirectedLink(i, j, s_ij, s_ji,
                                                 capacity_bps=capacity_bps)
                    links[(j, i)] = DirectedLink(j, i, s_ji, s_ij,
                                                 capacity_bps=capacity_bps)
        return links

    def _index(self):
        n = len(self.positions)
        self.neighbor_index: list[list[list[int]]] = [
            [[] for _ in range(self.n_sectors)] for _ in range(n)]
        self._out: list[list[int]] = [[] for _ in range(n)]
        self.link_dist: dict[tuple[int, int], float] = {}
        for (i, j) in sorted(self.links):
            lk = self.links[(i, j)]
            self.neighbor_index[i][lk.sector_at_tx].append(j)
            self._out[i].append(j)
            self.link_dist[(i, j)] = distance(self.positions[i],
                                              self.positions[j])
        self.sink_set = frozenset(self.sinks)
        # distances from every node to every sink, used constantly
        self.sink_dist: list[dict[int, float]] = [
            {k: distance(self.positions[i], self.positions[k])
             for k in self.sinks}
            for i in range(n)]

    @cached_property
    def progress(self) -> dict[tuple[int, int], dict[int, float]]:
        """Forward progress per link: (i, j) -> {k: (d_ik - d_jk) / d_ij}.

        Over the sinks k that j is strictly closer to than i, so a tie is
        no progress and a sink never progresses toward itself.  Built on
        first use: GR-CSMA, which routes without it, never pays for it.
        """
        sink_dist = self.sink_dist
        return {(i, j): {k: (d - sink_dist[j][k]) / d_ij
                         for k, d in sink_dist[i].items()
                         if sink_dist[j][k] < d}
                for (i, j), d_ij in self.link_dist.items()}

    # -- queries -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    def out_neighbors(self, i: int) -> list[int]:
        return self._out[i]

    def neighbors_in_sector(self, i: int, sector: int) -> list[int]:
        return self.neighbor_index[i][sector]

    def sector_neighbor_count(self, i: int, sector: int) -> int:
        return len(self.neighbor_index[i][sector])

    def is_sink(self, i: int) -> bool:
        return i in self.sink_set

    # -- serialization ----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "area_side_m": self.area_side_m,
            "range_m": self.range_m,
            "n_sectors": self.n_sectors,
            "nodes": [{"id": i, "x": p.x, "y": p.y}
                      for i, p in enumerate(self.positions)],
            "sinks": list(self.sinks),
            "links": [{"tx": lk.tx, "rx": lk.rx, "p_e": lk.p_e,
                       "p_b": lk.p_b, "capacity_bps": lk.capacity_bps}
                      for (_, _), lk in sorted(self.links.items())],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConnectivityGraph":
        """Inverse of to_json_dict; every link must be listed both ways."""
        nodes = sorted(doc["nodes"], key=lambda d: d["id"])
        if [d["id"] for d in nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be dense 0..n-1")
        positions = [Position(d["x"], d["y"]) for d in nodes]
        n_sectors = doc["n_sectors"]
        ids = range(len(positions))
        links = {}
        for rec in doc["links"]:
            i, j = rec["tx"], rec["rx"]
            if i not in ids or j not in ids:
                raise ValueError(f"link ({i}, {j}): endpoint is not a node id")
            if i == j:
                raise ValueError(f"link ({i}, {j}) is a self-link")
            s_ij = sector_of(positions[i], positions[j], n_sectors)
            s_ji = sector_of(positions[j], positions[i], n_sectors)
            links[(i, j)] = DirectedLink(i, j, s_ij, s_ji, rec["p_e"],
                                         rec["p_b"], rec["capacity_bps"])
        for (i, j) in links:
            if (j, i) not in links:
                raise ValueError(f"link ({i}, {j}) is listed without its "
                                 f"reverse ({j}, {i})")
        g = cls(positions, doc["sinks"], n_sectors, doc["range_m"],
                doc["area_side_m"], links=links)
        return g

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ConnectivityGraph":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def default_grid_sinks(rows: int, cols: int) -> list[int]:
    """Four corners plus the center node of a rows x cols grid."""
    corners = [0, cols - 1, (rows - 1) * cols, rows * cols - 1]
    center = (rows // 2) * cols + cols // 2
    out = []
    for s in corners + [center]:
        if s not in out:
            out.append(s)
    return out


def build_grid(rows: int, cols: int, area_side_m: float, range_m: float,
               sinks=None, n_sectors: int = 4,
               capacity_bps: float = 10_000_000.0) -> ConnectivityGraph:
    """Uniform grid deployment; node id = row * cols + col."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    pitch = area_side_m / rows
    positions = [Position(c * pitch, r * pitch)
                 for r in range(rows) for c in range(cols)]
    if sinks is None:
        sinks = default_grid_sinks(rows, cols)
    return ConnectivityGraph(positions, sinks, n_sectors, range_m,
                             area_side_m, capacity_bps=capacity_bps)


def build_random(n: int, area_side_m: float, range_m: float, n_sinks: int,
                 seed: int, n_sectors: int = 4,
                 capacity_bps: float = 10_000_000.0) -> ConnectivityGraph:
    """Uniform random deployment.

    The first n_sinks sampled positions become the sinks, which keeps
    sink placement independent of the total node count for a given seed.
    Connectivity is not forced; unreachable sources simply never deliver.
    """
    if n_sinks > n:
        raise ValueError("more sinks than nodes")
    rng = random.Random(seed)
    positions = [Position(rng.uniform(0.0, area_side_m),
                          rng.uniform(0.0, area_side_m)) for _ in range(n)]
    return ConnectivityGraph(positions, list(range(n_sinks)), n_sectors,
                             range_m, area_side_m, capacity_bps=capacity_bps)


def assign_error_probs(graph: ConnectivityGraph, mean_p_e: float,
                       seed: int) -> ConnectivityGraph:
    """Draw per-directed-link packet error rates, uniform on [0, 2*mean]."""
    if not 0.0 <= mean_p_e <= 0.5:
        raise ValueError("mean_p_e must lie in [0, 0.5]")
    rng = random.Random(seed)
    for key in sorted(graph.links):
        graph.links[key].p_e = rng.uniform(0.0, 2.0 * mean_p_e)
    return graph

def assign_blockage(graph: ConnectivityGraph, severe_fraction: float,
                    p_severe: float, p_mild: float,
                    seed: int) -> ConnectivityGraph:
    """Mark each undirected link pair severe with prob severe_fraction.

    Both directions of a pair share the class (an obstruction blocks the
    light path both ways); the draw is per pair, independent across pairs.
    """
    if not 0.0 <= severe_fraction <= 1.0:
        raise ValueError("severe_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    for (i, j) in sorted(graph.links):
        if i < j:
            p_b = p_severe if rng.random() < severe_fraction else p_mild
            graph.links[(i, j)].p_b = p_b
            graph.links[(j, i)].p_b = p_b
    return graph
