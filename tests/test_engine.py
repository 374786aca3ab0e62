"""Event engine: clock arithmetic, channel draws, runs, invariants."""
import hashlib
import itertools
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from lanetsim import engine
from lanetsim.config import ScenarioConfig
from lanetsim.core import Position
from lanetsim.engine import (Reservation, Simulation, SlotClock,
                             build_topology, count_occupancy_conflicts,
                             flood_routing_tables, generate_sessions,
                             reservations_conflict, run,
                             sample_link_outcome)
from lanetsim.reliability import (mhc_map, protocol_link_probs,
                                  rrs_fixed_point_oracle)
from lanetsim.rng import substream
from lanetsim.topology import ConnectivityGraph

from fleet import FLEET, chain, fresh_states, lattice, stamp


class ScriptRng:
    def __init__(self, vals):
        self.vals = list(vals)

    def random(self):
        return self.vals.pop(0)


class ForbiddenRng:
    def random(self):
        raise AssertionError("no draw expected")


# -- slot clock ---------------------------------------------------------


def test_clock_derives_from_config():
    clock = SlotClock.from_config(ScenarioConfig())
    assert clock.cms_us == 16          # 20 bytes at 10 Mb/s
    assert clock.slot_us == 128
    assert clock.super_us == 512


def test_listening_sector_cycles():
    clock = SlotClock(16, 8, 4)
    assert [clock.listening_sector(t) for t in (0, 127, 128, 300, 511, 512)] \
        == [0, 0, 1, 2, 3, 0]


def test_next_aligned_slot():
    clock = SlotClock(16, 8, 4)
    assert clock.next_aligned(0, 0) == 0
    assert clock.next_aligned(1, 0) == 512
    assert clock.next_aligned(128, 1) == 128
    assert clock.next_aligned(129, 1) == 640
    assert clock.next_aligned(0, 3) == 384


# -- channel draws ------------------------------------------------------


def test_outcome_draw_order_blockage_then_error():
    link = SimpleNamespace(p_b=0.3, p_e=0.2)
    assert sample_link_outcome(link, ScriptRng([0.25])) == "lost_blockage"
    assert sample_link_outcome(link, ScriptRng([0.35, 0.15])) == "lost_error"
    assert sample_link_outcome(link, ScriptRng([0.35, 0.25])) == "delivered"


def test_outcome_skips_draws_for_zero_probabilities():
    clean = SimpleNamespace(p_b=0.0, p_e=0.0)
    assert sample_link_outcome(clean, ForbiddenRng()) == "delivered"
    only_err = SimpleNamespace(p_b=0.0, p_e=0.2)
    assert sample_link_outcome(only_err, ScriptRng([0.5])) == "delivered"


def test_outcome_monte_carlo_frequencies():
    link = SimpleNamespace(p_b=0.3, p_e=0.2)
    rng = substream(5, "mc")
    n = 20000
    counts = {"delivered": 0, "lost_blockage": 0, "lost_error": 0}
    for _ in range(n):
        counts[sample_link_outcome(link, rng)] += 1
    assert counts["lost_blockage"] / n == pytest.approx(0.3, abs=0.02)
    assert counts["lost_error"] / n == pytest.approx(0.7 * 0.2, abs=0.02)
    assert counts["delivered"] / n == pytest.approx(0.7 * 0.8, abs=0.02)


def test_engine_channel_check_replays_link_substream():
    cfg = ScenarioConfig(protocol="VL-ROUTE", sessions=1,
                         packets_per_session=1, estimation_error=0.0)
    g = chain(2)
    sim = Simulation(cfg, graph=g)
    replay = substream(cfg.seed, "chan", 0, 1)
    link = g.links[(0, 1)]
    for _ in range(200):
        want = sample_link_outcome(link, replay) == "delivered"
        assert sim._chan_ok(0, 1) == want


@pytest.mark.parametrize("protocol", ["VL-ROUTE", "GR-CSMA"])
def test_each_link_keeps_one_channel_stream(protocol):
    """A request's draw and every later draw on a link share one stream."""
    sim = Simulation(grid_cfg(protocol=protocol, sessions=5,
                              duration_cap_s=0.3))
    sim.run()
    g = sim.graph
    n = g.n_nodes
    assert sim._audience
    for key, aud in sim._audience.items():
        i, beam = divmod(key, g.n_sectors)
        assert [entry[0] for entry in aud] == g.neighbor_index[i][beam]
        for j, node, draw, p_b, p_e, busy_key in aud:
            assert node is sim.nodes[j]
            assert (draw, p_b, p_e) == sim._chan_cache[i * n + j]
            assert draw is sim._chan_cache[i * n + j][0]
            assert busy_key == j * g.n_sectors + g.links[(i, j)].sector_at_rx


# -- traffic ------------------------------------------------------------


def test_sessions_deterministic_and_sourced_off_sinks():
    cfg = ScenarioConfig(sessions=8, packets_per_session=50)
    g = lattice(3, 3)
    a = generate_sessions(cfg, g, substream(9, "sessions"))
    b = generate_sessions(cfg, g, substream(9, "sessions"))
    assert a == b
    for s in a:
        assert s["source"] != 8
        assert s["sink"] == 8
        assert s["packets"] == 50
    assert [s["sid"] for s in a] == list(range(8))


def test_sessions_need_a_non_sink():
    g = ConnectivityGraph([Position(0, 0)], sinks=[0], n_sectors=4,
                          range_m=1.0, area_side_m=1.0)
    with pytest.raises(ValueError):
        generate_sessions(ScenarioConfig(sessions=1), g, substream(1, "s"))


# -- end-to-end on clean two-node links ---------------------------------


@pytest.mark.parametrize("protocol", ["VL-ROUTE", "VL-MAC-GEO", "GR-CSMA"])
def test_two_nodes_deliver_everything(protocol):
    cfg = ScenarioConfig(protocol=protocol, sessions=1, packets_per_session=5,
                         duration_cap_s=2.0, estimation_error=0.0)
    sim = Simulation(cfg, graph=chain(2, p_e=0.0, p_b=0.0))
    res = sim.run()
    assert res.delivered_total == 5
    assert res.conservation_ok
    assert count_occupancy_conflicts(sim.res_records, sim.graph) == 0
    assert sum(res.drops.values()) == 0
    assert 0.0 < res.normalized_throughput <= 1.0


def duplex_chain():
    """Sinks at both ends of a clean 4-node chain."""
    return stamp(ConnectivityGraph(
        [Position(0, 0), Position(1, 0), Position(2, 0), Position(3, 0)],
        sinks=[0, 3], n_sectors=4, range_m=1.5, area_side_m=4.0),
        p_e=0.0, p_b=0.0)


def duplex_cfg(**kw):
    # this seed's session mix covers both directions of the chain
    base = dict(protocol="VL-ROUTE", sessions=4, packets_per_session=40,
                duration_cap_s=2.0, estimation_error=0.0, seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


def test_full_duplex_emerges_with_reverse_traffic():
    # the sinks at both ends give the middle link opposed transit traffic
    res = run(duplex_cfg(), graph=duplex_chain())
    assert res.delivered_total == 160
    assert res.duplex_exchanges > 0
    assert res.duplex_ratio > 0.0


@pytest.mark.parametrize("cap_s,sinks", [(2.0, []), (0.001, [0, 3])])
def test_leftovers_are_classified_only_toward_their_sinks(cap_s, sinks,
                                                          monkeypatch):
    calls = []

    def counting_mhc_map(graph, k):
        calls.append(k)
        return mhc_map(graph, k)

    # the warm-up calls mhc_map at construction, so count only the run
    sim = Simulation(duplex_cfg(duration_cap_s=cap_s), graph=duplex_chain())
    monkeypatch.setattr(engine, "mhc_map", counting_mhc_map)
    res = sim.run()
    assert res.conservation_ok
    # a drained run holds and owes nothing, so it classifies nothing
    assert (res.in_flight == 0) == (not sinks)
    assert sorted(calls) == sinks


# -- warm-up against the fixed-point oracle -----------------------------


def without_delta(adv):
    """A copy of an advert as a hand-built one: no delta, a fresh table."""
    return {"node": adv["node"], "table": dict(adv["table"]),
            "sector_counts": adv["sector_counts"]}


def flood_one_advert_at_a_time(graph, states):
    """The flood over every link in every round, with a recompute after
    every single advert, each folded by diffing whole tables."""
    rounds_cap = graph.n_nodes + 8
    rounds = 0
    for _ in range(rounds_cap):
        adverts = {i: without_delta(states[i].advertisement())
                   for i in sorted(states)}
        changed_any = False
        for i in sorted(states):
            for j in graph.out_neighbors(i):
                if states[i].observe(adverts[j]) \
                        and states[i].recompute({})[0]:
                    changed_any = True
        rounds += 1
        if not changed_any:
            break
    return rounds


# (name, graph, relative estimation error)
FLOOD_GRAPHS = [(name, g, 0.0) for name, g in FLEET] + [
    ("desk-grid", build_topology(ScenarioConfig()), 0.0),
    ("desk-grid-dark", build_topology(ScenarioConfig(severe_fraction=0.5)),
     0.0),
    # campus density: 400 random nodes and 20 sinks on a 50 m side
    ("campus-noisy", build_topology(ScenarioConfig(
        topology="random", n_nodes=400, n_sinks=20, area_side_m=50.0,
        seed=7)), 0.2),
    # no sink has a neighbor, so the flood stops after its first round
    ("lonely-sinks", stamp(ConnectivityGraph(
        [Position(0, 0), Position(1, 0), Position(2, 0), Position(10, 10),
         Position(20, 0)], sinks=[3, 4], n_sectors=4, range_m=1.5,
        area_side_m=25.0)), 0.0)]


def routing_state(st):
    """Everything a routing state holds that a run reads, as values."""
    out = {
        "obs": [(j, ob.reverse_sector, ob.table, ob.sector_counts, ob.p_link)
                for j, ob in st.obs.items()],
        "obs_by_sector": [[j for j, _ in sec] for sec in st.obs_by_sector],
        # per sink, the observed neighbors the hop count ranges over
        "fwd": {k: sorted(j for j, ob in st.obs.items() if k in ob.forward)
                for k in st.sinks},
        "entries": {k: (e.gamma, e.mhc, e.last_beta, e.best)
                    for k, e in st.entries.items()},
        "pending": (st._dirty, st._discounted, st._adv_moved,
                    st._gmax_cache),
    }
    adv = st.advertisement()
    out["advert"] = (adv["table"], adv["sector_counts"])
    return out


@pytest.mark.parametrize("graph,eps", [pytest.param(g, eps, id=name)
                                       for name, g, eps in FLOOD_GRAPHS])
def test_batched_flood_matches_per_advert_flood(graph, eps):
    batched = fresh_states(graph, eps)
    one_by_one = fresh_states(graph, eps)
    rounds = flood_routing_tables(graph, batched)
    assert rounds == flood_one_advert_at_a_time(graph, one_by_one)
    for i in range(graph.n_nodes):
        st = batched[i]
        assert not (st._dirty or st._discounted or st._adv_moved
                    or st._gmax_cache), i
        assert routing_state(st) == routing_state(one_by_one[i]), i
    for i in range(graph.n_nodes):
        # listeners hold the objects their senders serve
        for j, ob in batched[i].obs.items():
            adv = batched[j].advertisement()
            assert ob.table is adv["table"], (i, j)
            if rounds > 1:
                assert ob.sector_counts is adv["sector_counts"], (i, j)
        assert batched[i].recompute({}) == (False, False), i


def test_forward_progress_is_stored_once():
    cfg = ScenarioConfig(protocol="VL-ROUTE", sessions=3,
                         duration_cap_s=0.2)
    sim = Simulation(cfg)
    g = sim.graph
    assert sim.prog is g.progress
    for node in sim.nodes:
        for j, ob in node.routing.obs.items():
            assert ob.forward is g.progress[(node.nid, j)]
    gr = Simulation(replace(cfg, protocol="GR-CSMA"))
    gr.run()
    # GR-CSMA routes geographically and never builds the index
    assert "progress" not in vars(gr.graph)
    assert not hasattr(gr, "prog")


def test_warmup_tables_match_oracle_exactly():
    cfg = ScenarioConfig(protocol="VL-ROUTE", sessions=1,
                         estimation_error=0.0)
    g = lattice(3, 3)
    sim = Simulation(cfg, graph=g)
    probs = protocol_link_probs(g, cfg.cw)
    for k in g.sinks:
        oracle = rrs_fixed_point_oracle(g, k, probs, b_max=cfg.b_max)
        for node in sim.nodes:
            got_g, got_h = node.routing.snapshot()[k]
            assert got_h == oracle[node.nid][1]
            assert got_g == pytest.approx(oracle[node.nid][0], abs=1e-9)


# -- whole-run invariants -----------------------------------------------


def grid_cfg(**kw):
    base = dict(protocol="VL-ROUTE", sessions=3, duration_cap_s=0.4, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


def test_repeat_runs_are_identical():
    a = run(grid_cfg())
    b = run(grid_cfg())
    assert a.trace_hash == b.trace_hash
    assert a.delivered_total == b.delivered_total
    assert a.normalized_throughput == b.normalized_throughput
    assert a.events == b.events


def test_seed_changes_the_run():
    a = run(grid_cfg())
    b = run(grid_cfg(seed=12))
    assert a.trace_hash != b.trace_hash


def test_trace_file_matches_reported_hash(tmp_path):
    path = tmp_path / "events.log"
    res = run(grid_cfg(), trace_path=str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == res.trace_hash
    assert path.stat().st_size > 0


def test_conservation_and_occupancy_on_lossy_grid():
    for proto in ("VL-ROUTE", "VL-MAC-GEO", "GR-CSMA"):
        sim = Simulation(grid_cfg(protocol=proto, sessions=5,
                                  duration_cap_s=0.6))
        res = sim.run()
        assert res.conservation_ok, proto
        assert count_occupancy_conflicts(sim.res_records, sim.graph) == 0, \
            proto
        assert res.generated == 5 * 200


# trace_hash of grid_cfg(protocol=p, sessions=5, duration_cap_s=0.6)
PINNED_TRACE_HASHES = {
    "VL-ROUTE":
        "1f9db8e95a5e4d6325aa8e656413bb11e93d09e2ab1b00d9ab1bc403c34d2fbf",
    "VL-MAC-GEO":
        "7dd3b7749161291e188739f1b4c39105abceabed7f4ef151f119fe4f2f39df36",
    "GR-CSMA":
        "3f66d2ca23443be6cdca936b771da2124ad7ec3f744e078399e354eff9594c2a",
}


# trace_hash of the desk-sweep cell grid_cfg(protocol=p, sessions=18,
# seed=1, duration_cap_s=0.5): unlike the run above it has duplex
# exchanges under every protocol and GR-CSMA collisions
BUSY_TRACE_HASHES = {
    "VL-ROUTE":
        "e732a4702f65a24eb63f4c32998b74a2472bb18139798d40b9a414f6237ac42f",
    "VL-MAC-GEO":
        "b4497b9d239f76453d1d3fb11cecc0deff687971b8815cb24d91da03f963752a",
    "GR-CSMA":
        "79fef0c99dd4f193aeec77b08556cfe20a6f3e99cc46e352d00c52599f181ff7",
}


# trace_hash of a sparse random deployment, grid_cfg(protocol=p,
# topology="random", n_nodes=150, n_sinks=6, area_side_m=35.0,
# sessions=10, duration_cap_s=1.0): 403 of its 900 node-sink pairs have
# no route, and both VL protocols make duplex exchanges
RANDOM_TRACE_HASHES = {
    "VL-ROUTE":
        "19e4c16e3e9ff0b12dc3d00ebf01bf13f656aaa01383a7fb7df3e585be5ef862",
    "VL-MAC-GEO":
        "e6956b3899b143aa2014bc74b97800dcdd0507d3242d585f35891f065f0134e0",
    "GR-CSMA":
        "a8aa0d6cf73dbaac5a520d93a7117c43ccf0e6f99798358bde65102ac1c681cc",
}
PINNED_RUNS = {
    "small": (dict(sessions=5, duration_cap_s=0.6), PINNED_TRACE_HASHES),
    "busy": (dict(sessions=18, seed=1, duration_cap_s=0.5),
             BUSY_TRACE_HASHES),
    "random": (dict(topology="random", n_nodes=150, n_sinks=6,
                    area_side_m=35.0, sessions=10, duration_cap_s=1.0),
               RANDOM_TRACE_HASHES),
}
# RunMetrics counters the trace hash does not cover, per pinned run
PINNED_FIELDS = ("exchanges_total", "duplex_exchanges", "handshake_failures",
                 "cc_collisions", "commit_aborts", "events",
                 "delivered_total")
PINNED_COUNTERS = {
    ("VL-ROUTE", "small"): (1710, 0, 7916, 178, 18, 5519, 108),
    ("VL-MAC-GEO", "small"): (1067, 0, 18853, 694, 16, 4787, 93),
    ("GR-CSMA", "small"): (738, 0, 1307, 0, 0, 3935, 42),
    ("VL-ROUTE", "busy"): (2899, 154, 29869, 598, 36, 6784, 117),
    ("VL-MAC-GEO", "busy"): (2008, 73, 31113, 352, 29, 5901, 126),
    ("GR-CSMA", "busy"): (1422, 114, 4506, 4, 0, 5324, 105),
    ("VL-ROUTE", "random"): (2768, 22, 45816, 1616, 23, 10550, 308),
    ("VL-MAC-GEO", "random"): (2876, 24, 50818, 3543, 21, 9942, 316),
    ("GR-CSMA", "random"): (2561, 0, 5181, 16, 3, 8224, 328),
}


@pytest.mark.parametrize("protocol, pinned", [
    pytest.param(p, name, id=p if name == "small" else f"{p}-{name}")
    for name in PINNED_RUNS for p in sorted(PINNED_TRACE_HASHES)])
def test_pinned_trace_hash(protocol, pinned):
    """The simulated behaviour of three fixed runs, per protocol.

    A change that only makes the simulator cheaper must leave every
    event, and so these hashes and counters, as they are.  A change to
    the protocol or to the order of its random draws moves them: such a
    change updates them here and says so in CHANGES.md.
    """
    overrides, hashes = PINNED_RUNS[pinned]
    res = run(grid_cfg(protocol=protocol, **overrides))
    assert res.trace_hash == hashes[protocol]
    assert tuple(getattr(res, f) for f in PINNED_FIELDS) == \
        PINNED_COUNTERS[(protocol, pinned)]


def test_blockage_hurts_throughput():
    clear = run(grid_cfg(sessions=5, duration_cap_s=1.0,
                         severe_fraction=0.0))
    dark = run(grid_cfg(sessions=5, duration_cap_s=1.0,
                        severe_fraction=1.0))
    assert clear.normalized_throughput > dark.normalized_throughput
    assert clear.delivered_total > dark.delivered_total


def test_unreachable_traffic_terminates_and_drops():
    g = stamp(ConnectivityGraph(
        [Position(0, 0), Position(50, 0)], sinks=[1], n_sectors=4,
        range_m=1.5, area_side_m=60.0))
    cfg = ScenarioConfig(protocol="VL-ROUTE", sessions=1,
                         packets_per_session=10, duration_cap_s=5.0)
    res = run(cfg, graph=g)
    assert res.delivered_total == 0
    assert res.drops.get("no-route", 0) == 10
    assert res.in_flight == 0
    assert res.conservation_ok


# -- occupancy checker on synthetic records -----------------------------


def cross_graph():
    pos = [Position(-1.0, 0.0), Position(0.0, 0.0),
           Position(-1.0, 0.4), Position(0.0, 0.4)]
    return ConnectivityGraph(pos, sinks=[3], n_sectors=4, range_m=1.5,
                             area_side_m=3.0)


def test_parallel_beams_into_one_listener_conflict():
    g = cross_graph()
    # 0 -> 1 and 2 -> 3 beam east in parallel; node 1 listens west and
    # hears node 2's transmission
    a = Reservation(0, 0, 1, 0, 2, 0, 100, 0, None)
    c = Reservation(1, 2, 3, 0, 2, 50, 150, 1, None)
    assert reservations_conflict(g.links, a, c)
    assert reservations_conflict(g.links, c, a)
    assert count_occupancy_conflicts([a, c], g) == 1


def test_time_disjoint_reservations_do_not_conflict():
    g = cross_graph()
    a = Reservation(0, 0, 1, 0, 2, 0, 100, 0, None)
    c = Reservation(1, 2, 3, 0, 2, 100, 200, 1, None)
    assert not reservations_conflict(g.links, a, c)
    assert count_occupancy_conflicts([a, c], g) == 0


def test_spatially_disjoint_chain_pairs_do_not_conflict():
    g = chain(4)
    a = Reservation(0, 0, 1, 0, 2, 0, 100, 0, None)
    b = Reservation(1, 2, 3, 0, 2, 0, 100, 1, None)
    assert not reservations_conflict(g.links, a, b)
    assert count_occupancy_conflicts([a, b], g) == 0


def test_occupancy_sweep_counts_exactly_the_conflicting_pairs():
    g = lattice(4, 4, diagonal=True)
    rng = random.Random(5)
    pairs = sorted(g.links)
    records = []
    for rid in range(300):
        i, a = rng.choice(pairs)
        start = rng.randrange(2000)
        records.append(Reservation(rid, i, a, rng.randrange(4),
                                   rng.randrange(4), start,
                                   start + rng.randrange(1, 200), 0, None))
    brute = sum(reservations_conflict(g.links, p, q)
                for p, q in itertools.combinations(records, 2))
    assert brute > 0
    assert count_occupancy_conflicts(records, g) == brute
