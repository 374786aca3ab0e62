"""Probability formulas and brute-force oracles."""
import math

import pytest
from hypothesis import given, strategies as st

from lanetsim.core import Position, distance
from lanetsim.reliability import (INF, access_prob, delivery_prob_oracle,
                                  enumerate_forward_routes,
                                  link_success_prob, mhc_map,
                                  protocol_link_probs, route_reliability,
                                  rrs_fixed_point_oracle, transmit_prob)
from lanetsim.topology import ConnectivityGraph

from fleet import SMALL, chain, diamond, iter_forward_routes


def uniform_probs(graph, p):
    return {key: p for key in graph.links}


def test_transmit_prob_examples():
    assert transmit_prob(31) == 0.0625
    assert transmit_prob(1) == 1.0
    assert transmit_prob(3) == 0.5
    with pytest.raises(ValueError):
        transmit_prob(0)


def test_access_prob_examples():
    assert access_prob(3, 1) == 0.5
    assert access_prob(3, 2) == 0.25
    assert access_prob(31, 5) == pytest.approx(0.0625 * 0.9375 ** 4)
    with pytest.raises(ValueError):
        access_prob(3, 0)


@given(st.integers(2, 63), st.integers(1, 30))
def test_access_prob_decreasing_in_contenders(cw, m):
    assert access_prob(cw, m + 1) < access_prob(cw, m)


def test_link_success_prob_examples():
    assert link_success_prob(0.2, 1.0, 0.05) == pytest.approx(0.76)
    assert link_success_prob(0.0, 1.0, 0.0) == 1.0
    assert link_success_prob(0.2, 0.25, 0.9) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        link_success_prob(1.2, 0.5, 0.0)


def test_route_reliability_examples():
    probs = {(0, 1): 0.8, (1, 2): 0.5, (2, 3): 0.76}
    assert route_reliability((0, 1, 2, 3), probs) == pytest.approx(0.304)
    assert route_reliability((0, 1), {(0, 1): 0.76}) == 0.76
    assert route_reliability((5,), {}) == 1.0
    with pytest.raises(KeyError):
        route_reliability((0, 2), probs)


@pytest.mark.parametrize("name,graph", SMALL, ids=[n for n, _ in SMALL])
def test_enumerator_cross_check(name, graph):
    for sink in graph.sinks:
        for src in range(graph.n_nodes):
            if src == sink:
                continue
            lib = sorted(enumerate_forward_routes(graph, src, sink))
            assert lib == iter_forward_routes(graph, src, sink)


@pytest.mark.parametrize("name,graph", SMALL, ids=[n for n, _ in SMALL])
def test_routes_simple_and_strictly_forward(name, graph):
    for sink in graph.sinks:
        pos_k = graph.positions[sink]
        for src in range(graph.n_nodes):
            if src == sink:
                continue
            for route in enumerate_forward_routes(graph, src, sink):
                assert len(set(route)) == len(route)
                assert route[0] == src and route[-1] == sink
                for a, b in zip(route, route[1:]):
                    assert (a, b) in graph.links
                    assert distance(graph.positions[b], pos_k) < \
                        distance(graph.positions[a], pos_k)


def test_chain_has_single_route():
    g = chain(3)
    assert enumerate_forward_routes(g, 0, 2) == [(0, 1, 2)]


def test_diamond_has_two_routes():
    g = diamond()
    assert sorted(enumerate_forward_routes(g, 0, 3)) == \
        [(0, 1, 3), (0, 2, 3)]


def test_delivery_oracle_diamond():
    g = diamond()
    assert delivery_prob_oracle(g, 0, 3, uniform_probs(g, 0.5)) == \
        pytest.approx(0.4375)


def test_delivery_oracle_no_route_and_identity():
    g = ConnectivityGraph(
        [Position(0.0, 0.0), Position(10.0, 0.0)],
        sinks=[1], n_sectors=4, range_m=1.5, area_side_m=12.0)
    assert delivery_prob_oracle(g, 0, 1, {}) == 0.0
    assert delivery_prob_oracle(g, 1, 1, {}) == 1.0


def test_delivery_oracle_single_route_value():
    g = chain(2)
    assert delivery_prob_oracle(g, 0, 1, {(0, 1): 0.304, (1, 0): 0.304}) \
        == pytest.approx(0.304)


def test_delivery_oracle_monotone_in_link_prob():
    g = diamond()
    base = uniform_probs(g, 0.5)
    bumped = dict(base)
    bumped[(0, 1)] = 0.7
    assert delivery_prob_oracle(g, 0, 3, bumped) >= \
        delivery_prob_oracle(g, 0, 3, base)


def test_mhc_map_chain_and_unreachable():
    g = chain(4)
    h = mhc_map(g, 3)
    assert h == {0: 3, 1: 2, 2: 1, 3: 0}
    # sink at the near end: every other node reaches it backward
    near = ConnectivityGraph(g.positions, [0], 4, g.range_m, g.area_side_m)
    h0 = mhc_map(near, 0)
    assert h0[0] == 0 and h0[3] == 3
    with pytest.raises(ValueError, match="not a sink"):
        mhc_map(g, 0)
    lone = ConnectivityGraph([Position(0, 0), Position(10, 0)], [1], 4,
                             range_m=1.0, area_side_m=11.0)
    assert mhc_map(lone, 1)[0] == INF


def test_rrs_oracle_chain_hand_values():
    g = chain(3)
    probs = {(0, 1): 0.5, (1, 0): 0.5, (1, 2): 0.8, (2, 1): 0.8}
    out = rrs_fixed_point_oracle(g, 2, probs)
    assert out[2] == (1.0, 0)
    assert out[1][0] == pytest.approx(0.8) and out[1][1] == 1
    assert out[0][0] == pytest.approx(0.4) and out[0][1] == 2


def two_neighbor_graph(split_sectors: bool):
    if split_sectors:
        pos = [Position(0, 0), Position(1, 0.3), Position(0.3, 1),
               Position(1.5, 1.0)]
    else:
        pos = [Position(0, 0), Position(1, 0.3), Position(1, -0.3),
               Position(2, 0)]
    return ConnectivityGraph(pos, sinks=[3], n_sectors=4, range_m=1.5,
                             area_side_m=3.0)


def test_rrs_oracle_sector_union_vs_split():
    for split, expect in ((False, 0.64), (True, 0.4)):
        g = two_neighbor_graph(split)
        assert (0, 3) not in g.links  # no shortcut past the relays
        probs = {}
        for (i, j) in g.links:
            probs[(i, j)] = 0.8 if 3 in (i, j) else 0.5
        out = rrs_fixed_point_oracle(g, 3, probs)
        assert out[1][0] == pytest.approx(0.8)
        assert out[2][0] == pytest.approx(0.8)
        assert out[0][0] == pytest.approx(expect)


def test_rrs_oracle_full_buffer_zeroes_score():
    g = chain(3)
    probs = uniform_probs(g, 0.8)
    out = rrs_fixed_point_oracle(g, 2, probs, backlogs={1: 100}, b_max=100)
    assert out[1][0] == 0.0
    # node 0 still reaches the sink only through node 1
    assert out[0][0] == 0.0


def test_rrs_oracle_parallel_route_never_hurts():
    g_one = chain(3)
    g_two = diamond()
    p_one = uniform_probs(g_one, 0.5)
    p_two = uniform_probs(g_two, 0.5)
    solo = rrs_fixed_point_oracle(g_one, 2, p_one)[0][0]
    dual = rrs_fixed_point_oracle(g_two, 3, p_two)[0][0]
    assert dual >= solo


@pytest.mark.parametrize("name,graph", SMALL, ids=[n for n, _ in SMALL])
def test_rrs_oracle_bounds_and_reachability(name, graph):
    probs = protocol_link_probs(graph, cw=5)
    for sink in graph.sinks:
        h = mhc_map(graph, sink)
        out = rrs_fixed_point_oracle(graph, sink, probs)
        for i in range(graph.n_nodes):
            gamma, hop = out[i]
            assert 0.0 <= gamma <= 1.0
            assert hop == h[i]
            if i != sink:
                assert (gamma > 0.0) == (h[i] != INF)


def test_protocol_link_probs_uses_receiver_sector_contention():
    g = chain(3)
    probs = protocol_link_probs(g, cw=5)
    for (i, j), p in probs.items():
        lk = g.links[(i, j)]
        m = g.sector_neighbor_count(j, lk.sector_at_rx)
        expect = link_success_prob(lk.p_e, access_prob(5, max(1, m)), lk.p_b)
        assert p == pytest.approx(expect)
