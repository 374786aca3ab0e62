"""The benchmark's checks pass on real runs and reject doctored ones."""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import tracing
from lanetsim import ScenarioConfig, Simulation, engine, mac
from lanetsim.core import Position
from lanetsim.reliability import protocol_link_probs, rrs_fixed_point_oracle
from lanetsim.topology import ConnectivityGraph

SMALL = dict(rows=5, cols=5, area_side_m=12.5, sessions=4,
             packets_per_session=30, duration_cap_s=0.3)


def small_sim(**kw) -> Simulation:
    return Simulation(replace(ScenarioConfig(), **{**SMALL, **kw}))


def tables(sim):
    n = sim.graph.n_nodes
    return ([sim.nodes[i].routing.link_static for i in range(n)],
            [sim.nodes[i].routing.snapshot() for i in range(n)])


def test_conservation_rejects_a_lost_packet():
    assert checks.conservation(100, 60, 30, 10) == []
    assert checks.conservation(100, 60, 30, 9)


def test_exchange_bound_rejects_impossible_counts():
    assert checks.exchange_bound(delivered=12, exchanges=10, duplex=2) == []
    assert checks.exchange_bound(delivered=13, exchanges=10, duplex=2)
    assert checks.exchange_bound(delivered=0, exchanges=2, duplex=3)


def test_real_run_passes_every_check():
    sim = small_sim()
    static, snaps = tables(sim)
    assert checks.routing_tables(sim.graph, static, snaps, sim.cfg.cw) == []
    m = sim.run()
    assert sim.res_records
    assert checks.reservation_safety(sim.res_records, sim.graph.links) == []
    assert checks.conservation(sim.cfg.sessions * sim.cfg.packets_per_session,
                               m.delivered_total, sum(m.drops.values()),
                               m.in_flight) == []
    assert checks.exchange_bound(m.delivered_total, m.exchanges_total,
                                 m.duplex_exchanges) == []


def test_fixed_point_matches_the_program_oracle_without_noise():
    sim = small_sim(estimation_error=0.0)
    static, _ = tables(sim)
    probs = protocol_link_probs(sim.graph, sim.cfg.cw)
    mine = checks.rrs_fixed_point(sim.graph, static, sim.cfg.cw)
    for k in sim.graph.sinks:
        oracle = rrs_fixed_point_oracle(sim.graph, k, probs)
        for i, (g, h) in oracle.items():
            assert mine[k][i][1] == h
            assert mine[k][i][0] == pytest.approx(g, abs=1e-12)


@pytest.mark.parametrize("field", ["rrs", "mhc"])
def test_routing_check_rejects_one_perturbed_entry(field):
    sim = small_sim()
    static, snaps = tables(sim)
    k = sim.graph.sinks[0]
    i = next(i for i in range(sim.graph.n_nodes) if snaps[i][k][0] > 0.0
             and i != k)
    g, h = snaps[i][k]
    snaps[i][k] = (g + 1e-6, h) if field == "rrs" else (g, h + 1)
    problems = checks.routing_tables(sim.graph, static, snaps, sim.cfg.cw)
    assert len(problems) == 1 and f"node {i} sink {k}" in problems[0]


def test_reservation_check_rejects_a_node_in_two_reservations():
    sim = small_sim()
    sim.run()
    first = sim.res_records[0]
    twin = replace(first, rid=10**6, start=first.start + 1,
                   end=first.end + 1)
    problems = checks.reservation_safety(sim.res_records + [twin],
                                         sim.graph.links)
    assert any(f"node {min(first.initiator, first.acceptor)} sits" in p
               for p in problems)


def beam_graph():
    # node 2 sits in node 1's west (receiving) sector and beams east
    pos = [Position(0, 0), Position(1, 0), Position(0, 0.3), Position(1, 1)]
    return ConnectivityGraph(pos, sinks=[3], n_sectors=4, range_m=1.5,
                             area_side_m=2.0)


def reservation(graph, rid, i, a, start, end):
    lk = graph.links[(i, a)]
    return engine.Reservation(rid, i, a, lk.sector_at_tx, lk.sector_at_rx,
                              start, end, 0, None)


def test_reservation_check_rejects_a_beam_into_a_receiving_sector():
    g = beam_graph()
    a = reservation(g, 1, 0, 1, 0, 100)
    b = reservation(g, 2, 2, 3, 50, 150)
    assert g.links[(2, 1)].sector_at_tx == b.i_beam
    assert g.links[(2, 1)].sector_at_rx == a.a_beam
    assert checks.reservation_safety([a, b], g.links)
    later = reservation(g, 2, 2, 3, 100, 200)
    assert checks.reservation_safety([a, later], g.links) == []


def test_repeat_check_rejects_a_changed_trace():
    rec = {"key": "VL-ROUTE-6-1", "problems": [], "trace_hash": "aa",
           **{f: 1 for f in run._REPEAT_FIELDS if f != "trace_hash"}}
    rnd = run.Round(2, 1.0, None, None, {rec["key"]: rec}, None)
    assert run.failed_ops(rnd, [rec["key"]], {rec["key"]: dict(rec)}) == []
    ref = dict(rec, trace_hash="bb")
    assert run.failed_ops(rnd, [rec["key"]], {rec["key"]: ref}) == \
        [rec["key"]]


def test_tracer_self_time_excludes_traced_children():
    tr = tracing.Tracer()
    inner = tr.fine_call("inner", lambda: sum(range(20000)))
    outer = tr.coarse("outer", lambda: inner() + inner())
    tr.run_id = "r"
    outer()
    got = tr.take("r")
    (span,) = got["spans"]
    (fine,) = got["fine"]
    assert span[1] == "outer" and fine[:3] == ["inner", "outer", 2]
    assert span[6] == pytest.approx(fine[3])
    assert span[3] - span[2] >= span[6]
    assert tr.take("r") == {"spans": [], "fine": []}


def test_traced_run_yields_every_layer_metric_and_uninstalls():
    tr = tracing.Tracer()
    saved = tracing.install(tr)
    try:
        tr.run_id = "r"
        sim = small_sim()
        m = sim.run()
    finally:
        tracing.uninstall(saved)
    assert engine.backoff_slots is mac.backoff_slots
    assert "__wrapped__" not in vars(Simulation.run)
    got = tr.take("r")
    rec = {"events": m.events, "exchanges": m.exchanges_total,
           "handshake_failures": m.handshake_failures,
           "cc_collisions": m.cc_collisions,
           "commit_aborts": m.commit_aborts,
           "reservations": len(sim.res_records)}
    layer = tracing.layer_metrics(got["spans"], got["fine"], [rec], 1)
    assert set(layer) == set(tracing.LAYER_UNITS)
    for name in ("engine.run_s", "engine.init_s", "routing.flood_s",
                 "routing.observe_calls", "mac.backoff_calls",
                 "topology.links", "rng.substream_calls"):
        assert layer[name] > 0, name
    assert layer["engine.self_s"] < layer["engine.run_s"]


def test_benchmark_json_names_the_metrics_the_code_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        tracing.LAYER_UNITS
