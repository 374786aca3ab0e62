"""Deployment builders, link derivation, and channel assignment."""
import math
import random

import pytest

from lanetsim.core import DirectedLink, Position, distance, opposite_sector, \
    sector_of
from lanetsim.topology import (ConnectivityGraph, assign_blockage,
                               assign_error_probs, build_grid, build_random,
                               default_grid_sinks)

from fleet import FLEET, chain, lattice


def progress_from_positions(g):
    """The forward-progress relation derived link by link from scratch."""
    pos = g.positions
    out = {}
    for (i, j) in g.links:
        fwd = {}
        for k in g.sinks:
            d_i = distance(pos[i], pos[k])
            d_j = distance(pos[j], pos[k])
            if d_j < d_i:
                fwd[k] = (d_i - d_j) / distance(pos[i], pos[j])
        out[(i, j)] = fwd
    return out


PROGRESS_GRAPHS = FLEET + [
    ("desk-grid", build_grid(10, 10, area_side_m=25.0, range_m=4.0)),
    ("campus", build_random(400, area_side_m=50.0, range_m=4.0, n_sinks=20,
                            seed=7))]


@pytest.mark.parametrize("g", [pytest.param(g, id=name)
                               for name, g in PROGRESS_GRAPHS])
def test_progress_index_matches_positions(g):
    assert g.progress == progress_from_positions(g)
    # built once per graph
    assert g.progress is g.progress


def test_grid_pitch_and_interior_degree():
    g = build_grid(10, 10, area_side_m=25.0, range_m=4.0)
    assert g.n_nodes == 100
    assert distance(g.positions[0], g.positions[1]) == pytest.approx(2.5)
    # interior node: 4 axial at 2.5 m + 4 diagonal at ~3.536 m
    interior = 5 * 10 + 5
    nbrs = g.out_neighbors(interior)
    assert len(nbrs) == 8
    dists = sorted(distance(g.positions[interior], g.positions[j])
                   for j in nbrs)
    assert dists[0] == pytest.approx(2.5)
    assert dists[-1] == pytest.approx(math.sqrt(12.5))


def test_grid_corner_and_edge_degree():
    g = build_grid(10, 10, area_side_m=25.0, range_m=4.0)
    assert len(g.out_neighbors(0)) == 3
    assert len(g.out_neighbors(4)) == 5


def test_grid_singleton_and_pair():
    assert build_grid(1, 1, 1.0, 4.0).n_nodes == 1
    assert len(build_grid(1, 1, 1.0, 4.0).links) == 0
    g = build_grid(1, 2, 2.0, 4.0)
    assert g.n_nodes == 2 and len(g.links) == 2


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        build_grid(0, 3, 1.0, 1.0)


def test_default_grid_sinks_corners_plus_center():
    assert default_grid_sinks(10, 10) == [0, 9, 90, 99, 55]
    assert default_grid_sinks(1, 1) == [0]


def test_links_are_symmetric_pairs_with_opposite_sectors():
    g = lattice(3, 3, diagonal=True)
    for (i, j), lk in g.links.items():
        assert (j, i) in g.links
        assert lk.tx == i and lk.rx == j
        assert lk.sector_at_rx == opposite_sector(lk.sector_at_tx,
                                                  g.n_sectors)


def test_neighbor_index_partitions_neighbors():
    g = lattice(3, 3, diagonal=True)
    for i in range(g.n_nodes):
        by_sector = [g.neighbors_in_sector(i, s)
                     for s in range(g.n_sectors)]
        flat = [j for sec in by_sector for j in sec]
        assert sorted(flat) == g.out_neighbors(i)
        assert len(set(flat)) == len(flat)
        for s, sec in enumerate(by_sector):
            assert sec == sorted(sec)
            for j in sec:
                assert g.links[(i, j)].sector_at_tx == s


def test_build_random_deterministic_and_sinks_first():
    a = build_random(30, 10.0, 2.0, 3, seed=9)
    b = build_random(30, 10.0, 2.0, 3, seed=9)
    assert a.positions == b.positions
    assert a.sinks == [0, 1, 2]
    c = build_random(30, 10.0, 2.0, 3, seed=10)
    assert a.positions != c.positions
    # same seed, more nodes: the shared prefix is identical
    d = build_random(40, 10.0, 2.0, 3, seed=9)
    assert d.positions[:30] == a.positions


def test_build_random_rejects_excess_sinks():
    with pytest.raises(ValueError):
        build_random(3, 5.0, 1.0, 4, seed=1)


def test_assign_error_probs_range_and_mean():
    g = build_grid(10, 10, 25.0, 4.0)
    assign_error_probs(g, 0.2, seed=5)
    vals = [lk.p_e for lk in g.links.values()]
    assert all(0.0 <= v <= 0.4 for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.2) < 0.02
    # directions drawn independently
    assert any(g.links[(i, j)].p_e != g.links[(j, i)].p_e
               for (i, j) in g.links if i < j)


def test_assign_blockage_share_class_and_fraction():
    g = build_grid(10, 10, 25.0, 4.0)
    assign_blockage(g, 0.25, 0.9, 0.05, seed=5)
    severe = 0
    pairs = 0
    for (i, j), lk in g.links.items():
        assert lk.p_b in (0.9, 0.05)
        assert g.links[(j, i)].p_b == lk.p_b
        if i < j:
            pairs += 1
            severe += lk.p_b == 0.9
    assert pairs >= 150
    assert abs(severe / pairs - 0.25) < 0.05


def test_assign_blockage_endpoints():
    g = chain(5)
    assign_blockage(g, 0.0, 0.9, 0.05, seed=1)
    assert all(lk.p_b == 0.05 for lk in g.links.values())
    assign_blockage(g, 1.0, 0.9, 0.05, seed=1)
    assert all(lk.p_b == 0.9 for lk in g.links.values())


def test_json_round_trip(tmp_path):
    g = lattice(3, 4, diagonal=True, sinks=[0, 11])
    assign_error_probs(g, 0.2, seed=2)
    assign_blockage(g, 0.25, 0.9, 0.05, seed=2)
    path = tmp_path / "g.json"
    g.save(path)
    h = ConnectivityGraph.load(path)
    assert h.positions == g.positions
    assert h.sinks == g.sinks
    assert h.n_sectors == g.n_sectors
    assert set(h.links) == set(g.links)
    for key, lk in g.links.items():
        other = h.links[key]
        assert (other.p_e, other.p_b) == (lk.p_e, lk.p_b)
        assert other.capacity_bps == lk.capacity_bps
        assert (other.sector_at_tx, other.sector_at_rx) == \
            (lk.sector_at_tx, lk.sector_at_rx)
    # round-trip is byte-stable
    p2 = tmp_path / "g2.json"
    h.save(p2)
    assert p2.read_bytes() == path.read_bytes()


def test_json_rejects_one_way_link():
    doc = lattice(4, 4).to_json_dict()
    doc["links"] = [rec for rec in doc["links"]
                    if (rec["tx"], rec["rx"]) != (7, 11)]
    with pytest.raises(ValueError,
                       match=r"link \(11, 7\) is listed without its reverse"):
        ConnectivityGraph.from_json_dict(doc)


def test_json_rejects_unknown_endpoint():
    doc = lattice(4, 4).to_json_dict()
    doc["links"].append(dict(doc["links"][0], rx=16))
    with pytest.raises(ValueError,
                       match=r"link \(0, 16\): endpoint is not a node id"):
        ConnectivityGraph.from_json_dict(doc)
    doc["links"][-1]["rx"] = -1
    with pytest.raises(ValueError, match=r"link \(0, -1\)"):
        ConnectivityGraph.from_json_dict(doc)


def test_json_rejects_self_link():
    doc = lattice(4, 4).to_json_dict()
    doc["links"].append(dict(doc["links"][0], rx=0))
    with pytest.raises(ValueError, match=r"link \(0, 0\) is a self-link"):
        ConnectivityGraph.from_json_dict(doc)


# -- link derivation against all pairs ------------------------------------


def all_pairs_links(positions, range_m, n_sectors):
    """Every pair within range, both directions, pairs ascending."""
    links = {}
    for i, pi in enumerate(positions):
        for j in range(i + 1, len(positions)):
            pj = positions[j]
            if distance(pi, pj) <= range_m:
                s_ij = sector_of(pi, pj, n_sectors)
                s_ji = sector_of(pj, pi, n_sectors)
                links[(i, j)] = DirectedLink(i, j, s_ij, s_ji)
                links[(j, i)] = DirectedLink(j, i, s_ji, s_ij)
    return links


def random_deployments():
    rng = random.Random(17)
    for n, side, reach in ((60, 10.0, 2.0), (200, 20.0, 1.3),
                           (50, 3.0, 10.0), (80, 40.0, 0.7)):
        yield [Position(rng.uniform(-side, side), rng.uniform(0.0, side))
               for _ in range(n)], reach


def pitch_lattices():
    # pitch equal to the range: pairs sit exactly at range, on the cell
    # edges and corners, with pitches that do not divide evenly in binary
    for pitch in (1.0, 0.1, 0.3, 2.5, 4.0):
        yield [Position(c * pitch - 3 * pitch, r * pitch)
               for r in range(7) for c in range(7)], pitch


CELL_CASES = ([pytest.param(g.positions, g.range_m, id=name)
               for name, g in FLEET]
              + [pytest.param(pos, reach, id=f"random{i}")
                 for i, (pos, reach) in enumerate(random_deployments())]
              + [pytest.param(pos, pitch, id=f"pitch{pitch}")
                 for pos, pitch in pitch_lattices()])


@pytest.mark.parametrize("positions,range_m", CELL_CASES)
def test_cell_grid_links_equal_all_pairs(positions, range_m):
    g = ConnectivityGraph(positions, [0], 4, range_m, 10.0)
    want = all_pairs_links(positions, range_m, 4)
    assert list(g.links.items()) == list(want.items())
