"""Distributed routing state: observation folding, recomputation, caching."""
import random

import pytest

from lanetsim.core import Position
from lanetsim.reliability import (mhc_map, protocol_link_probs,
                                  rrs_fixed_point_oracle)
from lanetsim.rng import substream
from lanetsim.routing import INF, EstimationModel, compute_beta
from lanetsim.topology import ConnectivityGraph

from fleet import B_MAX, CW, chain, diamond, flooded_states, fresh_states, \
    lattice, random_graph, stamp


def test_sink_seeds_its_own_entry():
    g = chain(3)
    st = fresh_states(g)[2]
    assert st.entries[2].gamma == 1.0
    assert st.entries[2].mhc == 0
    assert st.snapshot() == {2: (1.0, 0)}


def test_non_sink_starts_unreachable():
    g = chain(3)
    st = fresh_states(g)[0]
    assert st.snapshot() == {2: (0.0, INF)}


@pytest.mark.parametrize("name,graph", [
    ("chain5", chain(5)),
    ("diamond", diamond()),
    ("lat3x3", lattice(3, 3)),
    ("rand8", random_graph(8, 11)),
])
def test_flood_matches_fixed_point_oracle(name, graph):
    states = flooded_states(graph)
    probs = protocol_link_probs(graph, CW)
    for k in graph.sinks:
        oracle = rrs_fixed_point_oracle(graph, k, probs)
        for i in range(graph.n_nodes):
            got_g, got_h = states[i].snapshot()[k]
            want_g, want_h = oracle[i]
            assert got_h == want_h, f"{name} node {i} sink {k}"
            assert got_g == pytest.approx(want_g, abs=1e-9), \
                f"{name} node {i} sink {k}"


def test_forward_progress_is_strictly_closer():
    # node 2 is as far from sink 0 as node 1 and within its range; only
    # the route round the south side makes strict progress at every hop
    pos = [Position(0, 0), Position(5, 0), Position(4, 3), Position(2, 2),
           Position(4.6, -1.9), Position(2.6, -4.0), Position(0.5, -3.1)]
    g = stamp(ConnectivityGraph(pos, sinks=[0], n_sectors=4, range_m=3.2,
                                area_side_m=6.0))
    assert (1, 2) in g.links and g.sink_dist[1][0] == g.sink_dist[2][0]
    states = flooded_states(g)
    want = mhc_map(g, 0)
    assert want[1] == 4
    for i in range(g.n_nodes):
        assert states[i].snapshot()[0][1] == want[i], i


def test_estimated_link_prob_matches_protocol_model():
    g = chain(3)
    states = flooded_states(g)
    probs = protocol_link_probs(g, CW)
    # node 1's sector toward node 0 holds only node 0, so m = 1
    assert states[0].obs[1].p_link == pytest.approx(0.8 * 0.9 / 3.0)
    for i in range(g.n_nodes):
        for j, ob in states[i].obs.items():
            assert ob.p_link == pytest.approx(probs[(i, j)])


def test_gamma_max_tracks_best_advertised_neighbor():
    g = chain(3)
    states = flooded_states(g)
    # node 1 hears the sink itself, node 0 only hears node 1
    assert states[1].gamma_max(2) == 1.0
    assert states[0].gamma_max(2) == states[1].entries[2].gamma


def test_batched_observation_matches_immediate_updates():
    g = lattice(3, 3)
    donors = flooded_states(g)
    adverts = []
    for j in g.out_neighbors(4):
        base = donors[j].advertisement()
        table = {k: (rec[0] * 0.9, rec[1])
                 for k, rec in base["table"].items()}
        adverts.append({"node": j, "table": table,
                        "sector_counts": base["sector_counts"]})

    one_by_one = flooded_states(g)[4]
    for adv in adverts:
        if one_by_one.observe(adv):
            one_by_one.recompute({})

    batched = flooded_states(g)[4]
    moved = False
    for adv in adverts:
        moved |= batched.observe(adv)
    assert moved
    batched.recompute({})

    assert one_by_one.snapshot() == batched.snapshot()


def test_backlog_discount_applies_without_new_observations():
    g = chain(4)
    st = flooded_states(g)[1]
    base = st.entries[3].gamma
    assert base > 0.0

    changed, worthy = st.recompute({3: B_MAX // 2})
    assert changed and not worthy
    assert st.entries[3].gamma == 0.5 * base

    # same backlog again: nothing to re-derive
    assert st.recompute({3: B_MAX // 2}) == (False, False)

    changed, _ = st.recompute({})
    assert changed
    assert st.entries[3].gamma == base


def test_backlog_only_recompute_equals_full_rederivation():
    # two identical flooded tables; one re-derives every sink from its
    # observations, the other only re-applies the backlog discount
    g = random_graph(20, 41, n_sinks=2)
    for nid in range(g.n_nodes):
        short = flooded_states(g)[nid]
        full = flooded_states(g)[nid]
        for backlogs in ({k: 37 for k in g.sinks}, {g.sinks[0]: B_MAX},
                         {}, {g.sinks[-1]: 3}):
            full._dirty.update(full.sinks)
            assert short.recompute(backlogs) == full.recompute(backlogs)
            assert short.snapshot() == full.snapshot(), nid


def test_full_buffer_zeroes_gamma_and_is_worthy():
    g = chain(4)
    st = flooded_states(g)[1]
    changed, worthy = st.recompute({3: B_MAX})
    assert changed and worthy
    assert st.entries[3].gamma == 0.0
    assert st.entries[3].mhc == 2


def test_first_route_discovery_is_worthy():
    g = chain(3)
    st = fresh_states(g)[0]
    adv = {"node": 1, "table": {2: (0.5, 1)},
           "sector_counts": (0, 0, 1, 0)}
    assert st.observe(adv)
    changed, worthy = st.recompute({})
    assert changed and worthy
    # p_link = 0.8 * 0.9 * access_prob(CW, 1); gamma = p_link * 0.5
    assert st.entries[2].mhc == 2
    assert st.entries[2].gamma == pytest.approx(0.72 * (1 / 3) * 0.5)


def test_content_equal_advert_reports_no_change():
    g = chain(3)
    st = flooded_states(g)[0]
    donor = flooded_states(g)[1]
    adv = donor.advertisement()
    v0 = st.version

    assert not st.observe(adv)          # same cached object
    copy = {"node": adv["node"], "table": dict(adv["table"]),
            "sector_counts": tuple(adv["sector_counts"])}
    assert not st.observe(copy)         # equal content, fresh objects
    assert st.version == v0


def test_advertisement_cached_until_state_moves():
    g = chain(3)
    st = flooded_states(g)[0]
    assert st.advertisement() is st.advertisement()

    donor = flooded_states(g)[1]
    base = donor.advertisement()
    bumped = {"node": 1, "table": {k: (rec[0] * 0.5, rec[1])
                                   for k, rec in base["table"].items()},
              "sector_counts": base["sector_counts"]}
    before = st.advertisement()
    assert st.observe(bumped)
    st.recompute({})
    assert st.advertisement() is not before


def test_observe_rejects_self():
    g = chain(3)
    st = fresh_states(g)[0]
    with pytest.raises(ValueError):
        st.observe({"node": 0, "table": {}, "sector_counts": ()})


def test_isolated_node_never_changes():
    g = ConnectivityGraph([Position(0, 0), Position(1, 0), Position(50, 50)],
                          sinks=[1], n_sectors=4, range_m=1.5,
                          area_side_m=60.0)
    assert g.out_neighbors(2) == []
    st = fresh_states(g)[2]
    assert st.link_static == {}
    assert st.recompute({}) == (False, False)
    assert st.snapshot() == {1: (0.0, INF)}


# -- estimation model ---------------------------------------------------


def test_zero_error_is_exact_passthrough():
    m = EstimationModel(0.0, 123)
    for p in (0.0, 0.05, 0.2, 0.9, 1.0):
        assert m.perturb(p, 0, 1, "pe") is p or m.perturb(p, 0, 1, "pe") == p


def test_perturbation_is_deterministic_and_bounded():
    a = EstimationModel(0.3, 7)
    b = EstimationModel(0.3, 7)
    seen = set()
    for tx, rx in ((0, 1), (1, 0), (2, 5)):
        for tag in ("pe", "pb"):
            pa = a.perturb(0.2, tx, rx, tag)
            assert pa == b.perturb(0.2, tx, rx, tag)
            assert abs(pa - 0.2) <= 0.2 * 0.3 + 1e-12
            seen.add(pa)
    assert len(seen) > 1            # draws differ across links


def test_each_estimate_is_the_first_draw_of_its_named_stream():
    """The model reseeds one generator per estimate, so an estimate does
    not depend on which estimates came before it."""
    m = EstimationModel(0.3, 7)
    for tx, rx, tag in ((2, 5, "pb"), (0, 1, "pe"), (2, 5, "pb"),
                        (1, 0, "pe")):
        delta = substream(7, "est", tag, tx, rx).uniform(-0.3, 0.3)
        assert m.perturb(0.2, tx, rx, tag) == 0.2 * (1.0 + delta)


def test_perturbation_clamps_to_unit_interval():
    m = EstimationModel(0.4, 99)
    for tx in range(40):
        assert 0.0 <= m.perturb(0.95, tx, tx + 1, "pb") <= 1.0


def test_estimation_error_bounds_checked():
    with pytest.raises(ValueError):
        EstimationModel(1.0, 1)
    with pytest.raises(ValueError):
        EstimationModel(-0.1, 1)


# -- backlog discount ---------------------------------------------------


def test_beta_endpoints_and_midpoint():
    assert compute_beta(0, 100) == 1.0
    assert compute_beta(100, 100) == 0.0
    assert compute_beta(25, 100) == 0.75


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compute_beta(-1, 100)
    with pytest.raises(ValueError):
        compute_beta(101, 100)
    with pytest.raises(ValueError):
        compute_beta(0, 0)


# -- folding adverts ------------------------------------------------------


def test_missed_advert_falls_back_to_the_diff():
    g = lattice(4, 4, diagonal=True, sinks=[0, 15])
    sender = flooded_states(g)[5]
    missed = flooded_states(g)[6]
    heard_all = flooded_states(g)[6]
    first = sender.advertisement()
    assert not missed.observe(first)
    assert not heard_all.observe(first)

    sender.recompute({0: B_MAX // 2})
    second = sender.advertisement()
    assert heard_all.observe(second)
    assert heard_all._dirty == {0}

    sender.recompute({0: B_MAX // 2, 15: B_MAX // 2})
    third = sender.advertisement()
    assert heard_all.observe(third)
    # missed the second advert, so the diff against the first finds
    # both sinks
    assert missed.observe(third)
    assert missed._dirty == heard_all._dirty == {0, 15}
    assert missed.recompute({}) == heard_all.recompute({})
    assert missed.snapshot() == heard_all.snapshot()


def test_record_changed_and_back_marks_nothing():
    g = lattice(4, 4, diagonal=True, sinks=[0, 15])
    sender = flooded_states(g)[5]
    rx = flooded_states(g)[6]
    first = sender.advertisement()
    assert not rx.observe(first)
    v0 = rx.version

    # sink 0's record moves and moves back before the next advert
    assert sender.recompute({0: B_MAX // 2})[0]
    assert sender.recompute({})[0]
    assert sender.advertisement()["table"] == first["table"]
    assert not rx.observe(sender.advertisement())
    assert rx._dirty == set()
    assert rx.version == v0

    # the same round trip for sink 0 while sink 15 really moves
    sender.recompute({0: B_MAX // 2})
    sender.recompute({15: B_MAX // 2})
    adv = sender.advertisement()
    assert rx.observe(adv)
    assert rx._dirty == {15}


def test_gamma_max_matches_rescan_after_every_fold():
    rng = random.Random(3)
    g = lattice(3, 3, diagonal=True, sinks=[0, 2, 8])
    st = fresh_states(g)[4]
    sinks = g.sinks
    sent: dict[int, dict] = {}
    for _ in range(400):
        j = rng.choice(g.out_neighbors(4))
        last = sent.get(j)
        if last is None or rng.random() < 0.3:
            # a fresh table
            table = {k: (rng.choice((0.0, 0.25, 0.5, 0.75)),
                         rng.choice((1, 2, INF)))
                     for k in sinks if rng.random() < 0.8}
            adv = {"node": j, "table": table,
                   "sector_counts": (rng.randint(0, 3),) * 4}
        else:
            prev = last["table"]
            if rng.random() < 0.3:
                table = prev    # a counts-only change
            else:
                table = dict(prev)
                for k in rng.sample(sinks, rng.randint(1, len(sinks))):
                    table[k] = (rng.choice((0.0, 0.25, 0.5, 0.75)), 1)
            adv = {"node": j, "table": table,
                   "sector_counts": (rng.randint(0, 3),) * 4}
        sent[j] = adv
        for k in sinks:
            st.gamma_max(k)         # fill the cache before the fold
        ob = st.obs.get(j)
        old = ob.table if ob else {}
        if ob is not None and ob.sector_counts != adv["sector_counts"]:
            want_dirty = set(sinks)
        else:
            want_dirty = {k for k in old.keys() | table.keys()
                          if old.get(k) != table.get(k)}
        st._dirty.clear()
        st.observe(adv)
        assert st._dirty == want_dirty
        for k in sinks:
            want = max((ob.table[k][0] for ob in st.obs.values()
                        if k in ob.table), default=0.0)
            assert st.gamma_max(k) == want
