"""Acceptance suite: one test per criterion, ordered as numbered.

Each test prints a single CRITERION line so a plain `pytest -v` run
reads as a checklist.  The grid deployment sweep (10 session counts
x 3 protocols x 10 seeds) is shared by criteria 4, 6 and 9 through a
module fixture and runs a 2.0 s traffic window; the experiment sweeps
use 2.5 s.  Both windows were chosen so the whole suite stays within
the stated runtime budgets on one core.
"""
import time
from statistics import fmean
from types import SimpleNamespace

import pytest

from lanetsim.config import ScenarioConfig
from lanetsim.engine import Simulation, count_occupancy_conflicts
from lanetsim.reliability import (access_prob, delivery_prob_oracle,
                                  link_success_prob, protocol_link_probs,
                                  rrs_fixed_point_oracle, transmit_prob)
from lanetsim.routing import compute_beta

from fleet import CW, FLEET, SMALL, diamond, flooded_states, \
    iter_forward_routes

SWEEP_CAP = 2.5
GRID_CAP = 2.0     # the 300-run deployment sweep must clear its time budget
SESSION_POINTS = range(2, 21, 2)
SEEDS10 = range(1, 11)
SEEDS5 = range(1, 6)
PROTOCOLS = ("VL-ROUTE", "VL-MAC-GEO", "GR-CSMA")

ALL_RUNS = []   # every RunMetrics the suite produces, for criterion 9


def simulate(**kw):
    """Run one scenario; returns its metrics and the finished Simulation."""
    kw.setdefault("duration_cap_s", SWEEP_CAP)
    sim = Simulation(ScenarioConfig(**kw))
    m = sim.run()
    ALL_RUNS.append(m)
    return m, sim


def timed_run(**kw):
    return simulate(**kw)[0]


def mean_over_seeds(seeds, field, **kw):
    return fmean(getattr(timed_run(seed=s, **kw), field) for s in seeds)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid_sweep():
    """Mean metrics per (protocol, session count) on the default grid,
    and the reservation conflicts found by sweeping every run's records."""
    t0 = time.perf_counter()
    cells = {}
    conflicts = 0
    for n in SESSION_POINTS:
        for proto in PROTOCOLS:
            ms = []
            for s in SEEDS10:
                m, sim = simulate(protocol=proto, sessions=n, seed=s,
                                  duration_cap_s=GRID_CAP)
                conflicts += count_occupancy_conflicts(sim.res_records,
                                                       sim.graph)
                ms.append(m)
            cells[(proto, n)] = SimpleNamespace(
                thr=fmean(m.normalized_throughput for m in ms),
                dup=fmean(m.duplex_ratio for m in ms),
                delivered=fmean(m.delivered_total for m in ms))
    return SimpleNamespace(cells=cells, conflicts=conflicts,
                           wall=time.perf_counter() - t0)


def test_criterion_1_distributed_tables_match_fixed_point():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for name, g in FLEET:
        states = flooded_states(g)
        probs = protocol_link_probs(g, CW)
        for k in g.sinks:
            oracle = rrs_fixed_point_oracle(g, k, probs)
            for i in range(g.n_nodes):
                got_g, got_h = states[i].snapshot()[k]
                want_g, want_h = oracle[i]
                assert got_h == want_h, f"{name} node {i} sink {k}"
                worst = max(worst, abs(got_g - want_g))
                checked += 1
    wall = time.perf_counter() - t0
    report(1, worst <= 1e-9 and len(FLEET) >= 20 and wall < 10.0,
           f"{checked} node-sink pairs over {len(FLEET)} graphs, "
           f"max deviation {worst:.2e}, {wall:.1f}s")


def test_criterion_2_delivery_probability_cross_check():
    checked = 0
    for name, g in SMALL:
        assert g.n_nodes <= 10
        probs = protocol_link_probs(g, CW)
        for k in g.sinks:
            for src in range(g.n_nodes):
                if src == k:
                    continue
                miss = 1.0
                for route in iter_forward_routes(g, src, k):
                    p = 1.0
                    for hop in zip(route, route[1:]):
                        p *= probs[hop]
                    miss *= 1.0 - p
                assert 1.0 - miss == delivery_prob_oracle(g, src, k, probs), \
                    f"{name} src {src} sink {k}"
                checked += 1
    g = diamond()
    uniform = {lk: 0.5 for lk in g.links}
    diamond_p = delivery_prob_oracle(g, 0, 3, uniform)
    report(2, diamond_p == 0.4375,
           f"{checked} pairs exact on {len(SMALL)} graphs; "
           f"two-route example {diamond_p}")


def test_criterion_3_formula_spot_checks():
    vals = {
        "transmit@31": transmit_prob(31),
        "hop(0.2,1.0,0.05)": link_success_prob(0.2, 1.0, 0.05),
        "beta@0": compute_beta(0, 100),
        "beta@full": compute_beta(100, 100),
    }
    access = [access_prob(CW, m) for m in range(1, 9)]
    decreasing = all(a > b for a, b in zip(access, access[1:]))
    ok = (vals["transmit@31"] == 0.0625
          and vals["hop(0.2,1.0,0.05)"] == 0.76
          and vals["beta@0"] == 1.0 and vals["beta@full"] == 0.0
          and decreasing)
    report(3, ok, f"{vals}, access strictly decreasing in contenders: "
                  f"{decreasing}")


def test_criterion_4_grid_throughput_ordering(grid_sweep):
    cells = grid_sweep.cells
    ordered = all(cells[("VL-ROUTE", n)].thr
                  >= cells[("VL-MAC-GEO", n)].thr
                  >= cells[("GR-CSMA", n)].thr
                  for n in SESSION_POINTS)
    gap_n = max(SESSION_POINTS,
                key=lambda n: cells[("VL-ROUTE", n)].thr
                - cells[("GR-CSMA", n)].thr)
    vl = cells[("VL-ROUTE", gap_n)].thr
    gr = cells[("GR-CSMA", gap_n)].thr
    ratio = (vl - gr) / gr if gr else float("inf")
    report(4, ordered and ratio >= 0.5 and grid_sweep.wall < 300.0,
           f"ordering at all {len(list(SESSION_POINTS))} points: {ordered}; "
           f"max gap {100 * ratio:.0f}% at {gap_n} sessions; "
           f"sweep {grid_sweep.wall:.0f}s")


def test_criterion_5_random_topology_ordering():
    random_kw = dict(topology="random", n_nodes=100, n_sinks=5)
    ok = True
    detail = []
    for n in SESSION_POINTS:
        vl = [timed_run(protocol="VL-ROUTE", sessions=n, seed=s, **random_kw)
              for s in SEEDS5]
        gr = [timed_run(protocol="GR-CSMA", sessions=n, seed=s, **random_kw)
              for s in SEEDS5]
        vl_thr = fmean(m.normalized_throughput for m in vl)
        gr_thr = fmean(m.normalized_throughput for m in gr)
        vl_dlv = fmean(m.delivered_total for m in vl)
        gr_dlv = fmean(m.delivered_total for m in gr)
        ok &= vl_thr > gr_thr and vl_dlv > gr_dlv
        if n == max(SESSION_POINTS):
            geo_dlv = mean_over_seeds(SEEDS5, "delivered_total",
                                      protocol="VL-MAC-GEO", sessions=n,
                                      **random_kw)
            ok &= vl_dlv >= geo_dlv
            detail.append(f"delivered at {n} sessions: "
                          f"{vl_dlv:.0f} vs geographic {geo_dlv:.0f}")
    report(5, ok, "throughput and delivered above GR-CSMA at every point; "
                  + "; ".join(detail))


def test_criterion_6_duplex_ratio_ordering(grid_sweep):
    cells = grid_sweep.cells
    above_gr = all(cells[("VL-ROUTE", n)].dup > cells[("GR-CSMA", n)].dup
                   and cells[("VL-MAC-GEO", n)].dup
                   > cells[("GR-CSMA", n)].dup
                   for n in SESSION_POINTS)
    spread = max(abs(cells[("VL-ROUTE", n)].dup
                     - cells[("VL-MAC-GEO", n)].dup)
                 for n in SESSION_POINTS)
    report(6, above_gr and spread <= 0.10,
           f"both above GR-CSMA at every point: {above_gr}; "
           f"max spread {100 * spread:.1f} points")


def test_criterion_7_blockage_monotonicity():
    fractions = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    series = {}
    for proto in PROTOCOLS:
        series[proto] = [mean_over_seeds(SEEDS5, "normalized_throughput",
                                         protocol=proto, sessions=5,
                                         severe_fraction=f)
                         for f in fractions]
    ok = True
    detail = []
    for proto, ys in series.items():
        span = max(ys) - min(ys)
        ups = [ys[i + 1] - ys[i] for i in range(len(ys) - 1)
               if ys[i + 1] > ys[i]]
        mono = len(ups) <= 1 and all(u <= 0.02 * span for u in ups)
        ok &= mono
        detail.append(f"{proto} inversions {len(ups)}")
    beats = all(a > b for a, b in zip(series["VL-ROUTE"],
                                      series["GR-CSMA"]))
    ok &= beats
    report(7, ok, f"{'; '.join(detail)}; above GR-CSMA throughout: {beats}")


def test_criterion_8_estimation_error_robustness():
    eps = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
    thr = [mean_over_seeds(SEEDS5, "normalized_throughput",
                           protocol="VL-ROUTE", sessions=10,
                           estimation_error=e)
           for e in eps]
    degradation = (thr[0] - thr[-1]) / thr[0]
    report(8, degradation <= 0.20,
           f"throughput {thr[0]:.4f} at 5% error, {thr[-1]:.4f} at 40%: "
           f"{100 * degradation:.1f}% degradation (cap 20%)")


def test_criterion_9_engine_properties(grid_sweep):
    conserved = all(m.conservation_ok for m in ALL_RUNS)
    repeats_ok = True
    pairs = [dict(protocol="VL-ROUTE", sessions=6, seed=2,
                  duration_cap_s=0.6),
             dict(protocol="VL-MAC-GEO", sessions=8, seed=5,
                  duration_cap_s=0.6),
             dict(protocol="GR-CSMA", sessions=12, seed=7,
                  duration_cap_s=0.6),
             dict(protocol="VL-ROUTE", sessions=4, seed=3,
                  duration_cap_s=0.6, topology="random", n_nodes=100,
                  n_sinks=5),
             dict(protocol="VL-ROUTE", sessions=5, seed=9,
                  duration_cap_s=0.6, severe_fraction=0.5)]
    for kw in pairs:
        first = timed_run(**kw)
        second = timed_run(**kw)
        repeats_ok &= first.trace_hash == second.trace_hash
    report(9, conserved and repeats_ok and grid_sweep.conflicts == 0,
           f"conservation on {len(ALL_RUNS)} runs: {conserved}; "
           f"5 repeated pairs deterministic: {repeats_ok}; "
           f"occupancy conflicts in deployment sweep: {grid_sweep.conflicts}")
