"""Access decisions, the utilities the engine ranks, and the queues."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lanetsim.config import ScenarioConfig
from lanetsim.core import DataPacket, Position, opposite_sector
from lanetsim.engine import Simulation
from lanetsim.mac import (MacNode, backoff_slots, greedy_next_hop,
                          select_initiator, select_sector,
                          select_session_eta)
from lanetsim.topology import ConnectivityGraph

from fleet import chain, stamp

P = Position


def hand_graph(positions, sinks):
    return stamp(ConnectivityGraph([P(x, y) for x, y in positions],
                                   sinks=sinks, n_sectors=4, range_m=2.5,
                                   area_side_m=6.0), p_e=0.0, p_b=0.0)


def fill(node, sid, n):
    for seq in range(n):
        node.enqueue(sid, DataPacket(sid, seq))


# -- utilities, as the engine computes them ----------------------------


def test_progress_table_is_normalized_and_forward_only():
    # 0 at the origin; 1 straight toward sink 4, 5 and 6 obliquely toward
    # it, 2 sideways and 3 backward
    g = hand_graph([(0, 0), (2, 0), (0, 2), (-2, 0), (4, 0), (2, 1.5),
                    (2.2, 1.0)], sinks=[4])
    sim = Simulation(ScenarioConfig(protocol="VL-MAC-GEO", sessions=1),
                     graph=g)
    assert sim.prog is g.progress
    # (d_ik - d_jk) / d_ij: (4 - 2) / 2 and (4 - 2.5) / 2.5
    assert g.progress[(0, 1)] == {4: 1.0}
    assert g.progress[(0, 5)] == {4: pytest.approx(0.6)}
    assert g.progress[(0, 2)] == g.progress[(0, 3)] == {}
    # the three forward neighbors share sector 0, whose term sums their
    # progress in ascending id; the reverse order rounds differently
    p1, p5, p6 = (g.progress[(0, j)][4] for j in (1, 5, 6))
    assert g.neighbors_in_sector(0, 0) == [1, 5, 6]
    assert (p6 + p5) + p1 != (p1 + p5) + p6
    assert sim._sector_terms(sim.nodes[0], 4) == [(0, (p1 + p5) + p6)]


def rrs_sim(p_e_last_hop):
    # two forward neighbors of node 0 in sector 0, both reaching sink 3;
    # node 2's last hop loses p_e_last_hop of its packets
    g = hand_graph([(0, 0), (2, 0.5), (2, -0.5), (4, 0)], sinks=[3])
    g.links[(2, 3)].p_e = p_e_last_hop
    return Simulation(ScenarioConfig(protocol="VL-ROUTE", sessions=2,
                                     estimation_error=0.0), graph=g)


def test_normalized_rrs():
    # each candidate's progress is weighted by gamma_j / gamma_max: the best
    # candidate counts in full, a lossier one by its share of the best RRS
    prog = (4 - math.hypot(2, 0.5)) / math.hypot(2, 0.5)
    even = rrs_sim(0.0)
    fill(even.nodes[0], 0, 1)
    assert even._vl_choose_eval(even.nodes[0]) == (0, pytest.approx(2 * prog))
    sim = rrs_sim(0.5)
    obs = sim.nodes[0].routing.obs
    g1, g2 = obs[1].table[3][0], obs[2].table[3][0]
    assert 0.0 < g2 < g1
    fill(sim.nodes[0], 0, 1)
    sector, util = sim._vl_choose_eval(sim.nodes[0])
    assert sector == 0
    assert util == pytest.approx(prog * (1.0 + g2 / g1))
    assert util < 2 * prog


def test_initiator_utility_sums_backlog_weighted_candidates():
    sim = rrs_sim(0.5)
    node = sim.nodes[0]
    fill(node, 0, 3)
    fill(node, 1, 2)
    obs = node.routing.obs
    g1, g2 = obs[1].table[3][0], obs[2].table[3][0]
    d_j = math.hypot(2, 0.5)
    prog = (4 - d_j) / d_j
    gmax = max(g1, g2)
    per_packet = prog * (g1 / gmax) + prog * (g2 / gmax)
    sector, util = sim._vl_choose_eval(node)
    assert sector == 0
    assert util == pytest.approx(3 * per_packet + 2 * per_packet)


def test_pair_utility_is_capacity_weighted_eta_sum():
    # sinks at both ends: session 0 runs 1 -> 2 toward sink 3, session 1
    # runs 2 -> 1 toward sink 0, so the pair carries a duplex exchange
    g = hand_graph([(0, 0), (2, 0), (4, 1), (6, 0)], sinks=[0, 3])
    g.links[(1, 2)].capacity_bps = 8e6
    g.links[(2, 1)].capacity_bps = 3e6
    sim = Simulation(ScenarioConfig(protocol="VL-MAC-GEO", sessions=2),
                     graph=g)
    sim.sess_sink.update({0: 3, 1: 0})
    i, j = sim.nodes[1], sim.nodes[2]
    fill(i, 0, 3)
    fill(j, 0, 1)
    fill(j, 1, 4)
    d_ij = math.hypot(2, 1)
    eta_fwd = (4 - d_ij) / d_ij * (3 - 1)
    eta_rev = (math.hypot(4, 1) - 2) / d_ij * (4 - 0)
    q_i, q_j, u = sim._eval_pair(j, i, j.q_version, 0)
    assert (q_i, q_j) == (0, 1)
    assert u == pytest.approx(eta_fwd * 8e6 + eta_rev * 3e6)


# -- node-local choices ----------------------------------------------------


def test_select_sector_prefers_low_index_on_ties():
    assert select_sector([0.0, 0.5, 0.5, 0.1]) == 1
    assert select_sector([0.0, 0.0, 0.0, 0.0]) is None
    assert select_sector([0.2]) == 0


def test_select_session_eta():
    assert select_session_eta([(3, 0.5, 10, 0)]) == (3, 5.0)
    # equal differentials: lowest session id wins
    assert select_session_eta([(2, 1.0, 5, 3), (1, 1.0, 4, 2)]) == (1, 2.0)
    assert select_session_eta([(1, 1.0, 2, 5)]) == (None, 0.0)
    assert select_session_eta([]) == (None, 0.0)


def test_select_initiator_ties_to_lowest_id():
    assert select_initiator([(4, 1.0), (2, 1.0)]) == 2
    assert select_initiator([(3, 0.5), (1, 0.2)]) == 3
    assert select_initiator([(1, 0.0)]) is None
    assert select_initiator([]) is None


# -- backoff ------------------------------------------------------------


def test_backoff_degenerate_window():
    rng = random.Random(1)
    assert all(backoff_slots(u, 1, rng) == 0 for u in (0.0, 5.0, 1e9))


def test_backoff_argument_checks():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        backoff_slots(0.0, 0, rng)
    with pytest.raises(ValueError):
        backoff_slots(-1.0, 5, rng)


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_backoff_always_in_window(utility, cw, seed):
    assert 0 <= backoff_slots(utility, cw, random.Random(seed)) < cw


@settings(max_examples=300, deadline=None)
@given(cw=st.integers(min_value=1, max_value=8),
       utility=st.one_of(
           st.just(0.0),
           # small enough that the decay ratio rounds to 1.0
           st.floats(min_value=1e-300, max_value=1e-16),
           st.floats(min_value=1e-16, max_value=1e3),
           st.floats(min_value=1e3, max_value=1e300)),
       scale=st.one_of(st.just(0.0), st.just(25.0),
                       st.floats(min_value=0.0, max_value=1e4)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_request_replays_the_backoff_draw(cw, utility, scale, seed):
    """Every request under one plan draws what backoff_slots draws.

    The engine builds the plan's weights once and replays them at each
    retry; slot and generator state must match the reference exactly.
    """
    cfg = ScenarioConfig(protocol="VL-MAC-GEO", cw=cw,
                         cms_per_slot=max(8, cw + 3),
                         backoff_utility_scale=scale, sessions=1,
                         packets_per_session=1)
    sim = Simulation(cfg, graph=chain(2))
    beam = opposite_sector(sim.clock.listening_sector(0), cfg.n_sectors)
    sim._vl_choose_eval = lambda node: (beam, utility)
    sent = []

    def broadcast(txs, beam):
        sent.extend(txs)
        return {}, set()

    sim._broadcast = broadcast
    node = sim.nodes[0]
    node.rng = random.Random(seed)
    ref = random.Random(seed)
    for _ in range(3):
        sent.clear()
        sim._resolve_slot_vl(0, [("art", 0)])
        assert sent == [(backoff_slots(utility, cw, ref, scale), 0)]
        assert node.rng.getstate() == ref.getstate()


def test_backoff_zero_utility_is_uniform():
    rng = random.Random(42)
    counts = [0] * 5
    for _ in range(1000):
        counts[backoff_slots(0.0, 5, rng)] += 1
    assert all(140 <= c <= 260 for c in counts)


def test_backoff_higher_utility_draws_earlier():
    rng = random.Random(7)
    n = 4000
    lo = sum(backoff_slots(1.0, 5, rng) for _ in range(n)) / n
    hi = sum(backoff_slots(100.0, 5, rng) for _ in range(n)) / n
    assert hi < lo - 0.3


def test_backoff_high_utility_favors_first_slot():
    rng = random.Random(9)
    counts = [0] * 5
    for _ in range(2000):
        counts[backoff_slots(500.0, 5, rng)] += 1
    assert counts[0] == max(counts)
    assert all(c > 0 for c in counts)   # never collapses to determinism


# -- geographic choice --------------------------------------------------


def test_greedy_next_hop_picks_closest():
    sink = P(10, 0)
    neighbors = [(1, P(2, 0)), (2, P(5, 0)), (3, P(4, 3))]
    assert greedy_next_hop(P(0, 0), sink, neighbors) == 2


def test_greedy_next_hop_ties_to_lowest_id():
    sink = P(2, 0)
    assert greedy_next_hop(P(0, 0), sink, [(5, P(1, 0)), (2, P(1, 0))]) == 2


def test_greedy_next_hop_requires_strict_improvement():
    sink = P(2, 0)
    assert greedy_next_hop(P(1, 0), sink, [(1, P(0, 0)), (2, P(1, 1))]) \
        is None
    assert greedy_next_hop(P(1, 0), sink, []) is None


# -- queue container ----------------------------------------------------


def make_node(b_max=4):
    return MacNode(0, b_max, random.Random(3),
                   sess_sink={1: 10, 2: 10, 3: 20})


def test_enqueue_dequeue_fifo_per_session():
    n = make_node()
    n.enqueue(1, DataPacket(1, 0))
    n.enqueue(1, DataPacket(1, 1))
    n.enqueue(2, DataPacket(2, 0))
    assert n.total_q == 3
    assert n.backlog(1) == 2
    assert n.free_space() == 1
    assert n.dequeue(1).seq == 0
    assert n.dequeue(1).seq == 1
    assert n.backlog(1) == 0


def test_buffer_overflow_raises():
    n = make_node(b_max=2)
    n.enqueue(1, DataPacket(1, 0))
    n.enqueue(1, DataPacket(1, 1))
    with pytest.raises(OverflowError):
        n.enqueue(2, DataPacket(2, 0))


def test_queue_version_bumps_on_every_mutation():
    n = make_node()
    v0 = n.q_version
    n.enqueue(1, DataPacket(1, 0))
    v1 = n.q_version
    n.dequeue(1)
    assert v0 < v1 < n.q_version


def test_queued_sids_sorted_and_refreshed():
    n = make_node()
    n.enqueue(3, DataPacket(3, 0))
    n.enqueue(1, DataPacket(1, 0))
    assert n.queued_sids() == [1, 3]
    assert n.queued_sids() is n.queued_sids()   # cached between mutations
    n.dequeue(3)
    assert n.queued_sids() == [1]


def test_backlog_by_sink_aggregates_sessions():
    n = make_node()
    n.enqueue(1, DataPacket(1, 0))
    n.enqueue(2, DataPacket(2, 0))
    n.enqueue(3, DataPacket(3, 0))
    assert n.backlog_by_sink() == {10: 2, 20: 1}
    n.dequeue(2)
    assert n.backlog_by_sink() == {10: 1, 20: 1}


def test_gr_service_order_is_oldest_packet_first():
    n = make_node()
    steps = [(n.enqueue, 1, DataPacket(1, 0)),
             (n.enqueue, 2, DataPacket(2, 0)),
             (n.enqueue, 1, DataPacket(1, 1)),
             (n.dequeue, 1), (n.dequeue, 2), (n.dequeue, 1)]
    heads = []
    for op, *args in steps:
        op(*args)
        # one service-order entry per queued packet
        assert len(n.gr_order) == n.total_q
        heads.append(n.gr_head_sid())
    assert heads == [1, 1, 1, 2, 1, None]
