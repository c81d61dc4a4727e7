"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints a PASS/FAIL line (run with -s to see them live) and
asserts at the stated tolerance.  The default desk-scale scenario is the
450-device, 24-hour day with the Table-style parameter distributions.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tiesmooth.baseline import (build_features, fit_baseline_model,
                                predict_baseline)
from tiesmooth.engine import run_scenario, run_training_simulation, write_results
from tiesmooth.market import (BidBatch, build_demand_curve, clear_market,
                              estimate_net_load)
from tiesmooth.metrics import compute_metrics
from tiesmooth.mgcc import LpfState, lpf_sinusoid_gain, lpf_step
from tiesmooth.population import estimate_free_peak_kw, generate_population
from tiesmooth.rng import substream
from tiesmooth.scenario import ScenarioConfig
from tiesmooth.traces import generate_traces, generate_training_traces, peak_weather

import io

from handmade import etp_of
from test_engine import run_audited
from test_market import brute_force_clear, price_order, rows_of
from test_thermal import advance, equilibrium_temperature, random_table_geometry, thermal_fleet


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bundle():
    """Default desk-scale scenario: fleet, traces, trained baseline."""
    cfg = ScenarioConfig(n_acl=450, seed=42)
    houses = generate_population(cfg.population_spec(), cfg.seed,
                                 cfg.thermal, cfg.epsilon_margin_c)
    free_peak = estimate_free_peak_kw(houses, *peak_weather())
    traces = generate_traces(cfg.seed, free_peak,
                             wind_capacity_ratio=cfg.wind_capacity_ratio,
                             acl_peak_share=cfg.acl_peak_share,
                             warmup_s=cfg.warmup_s)
    day_traces = generate_training_traces(cfg.seed, free_peak, cfg.training_days,
                                          warmup_s=cfg.warmup_s)
    samples = run_training_simulation(cfg, houses, day_traces)
    model = fit_baseline_model(samples)
    return cfg, houses, traces, model, samples


@pytest.fixture(scope="module")
def paired(bundle):
    cfg, houses, traces, model, _ = bundle
    start = time.perf_counter()
    controlled, audit = run_audited(cfg, houses, traces, model)
    uncontrolled = run_scenario(cfg, houses, traces, None, controlled=False)
    elapsed = time.perf_counter() - start
    return controlled, uncontrolled, audit, elapsed


@pytest.fixture(scope="module")
def bias_runs(bundle):
    cfg, houses, traces, model, _ = bundle
    out = {}
    for bias in (0.10, -0.10):
        off = run_scenario(replace(cfg, baseline_bias=bias,
                                   soa_feedback_enabled=False),
                           houses, traces, model)
        on = run_scenario(replace(cfg, baseline_bias=bias,
                                  soa_feedback_enabled=True),
                          houses, traces, model)
        out[bias] = (off, on)
    return cfg, out


def cycle_s_values(run, cfg):
    return np.array([r.s_aggregate for r in run.cycle_records
                     if r.k * cfg.control_cycle_s >= cfg.warmup_s])


def test_criterion_1_lpf_correctness():
    cfg = ScenarioConfig(tau_s=50 * 60.0, control_cycle_s=60)
    # constant inputs are exact fixed points
    exact = True
    for level in (100.0, 437.519, 0.1, 12345.0625):
        state = LpfState(level, True)
        for _ in range(100):
            out, state = lpf_step(state, level, cfg)
            exact &= out == level
    # 10-minute sinusoid: steady amplitude vs the analytic discrete gain
    period = 600.0
    omega = 2.0 * math.pi / period
    state = LpfState(0.0, True)
    tail_t, tail_y = [], []
    for k in range(1, 1501):
        t = k * cfg.control_cycle_s
        out, state = lpf_step(state, math.sin(omega * t), cfg)
        if k > 1200:
            tail_t.append(t)
            tail_y.append(out)
    basis = np.column_stack([np.sin(omega * np.array(tail_t)),
                             np.cos(omega * np.array(tail_t))])
    coef, *_ = np.linalg.lstsq(basis, np.array(tail_y), rcond=None)
    measured = math.hypot(*coef)
    analytic = lpf_sinusoid_gain(cfg, period)
    gain_ok = abs(measured - analytic) <= 0.02 * analytic
    report(1, exact and gain_ok,
           f"fixed point exact={exact}, sinusoid gain {measured:.5f} vs "
           f"analytic {analytic:.5f}")


class BidDraws:
    """Bids whose price and quantity are drawn bid by bid, price first.

    One array draw with per-element bounds takes the same doubles in the
    same order as scalar `gen.uniform` calls, so the cases match them.
    """

    def __init__(self, gen, max_n, price_range, quantity_range):
        self.gen = gen
        self.low, self.high = (np.tile([price_range[i], quantity_range[i]], max_n)
                               for i in (0, 1))

    def __call__(self, n):
        draws = self.gen.uniform(self.low[:2 * n], self.high[:2 * n])
        return BidBatch(draws[0::2], draws[1::2], np.zeros(n, dtype=bool), np.arange(n))


def test_criterion_2_clearing_oracle_and_conservation():
    gen = substream(2025, 2)
    start = time.perf_counter()
    mismatches = 0
    draw_bids = BidDraws(gen, 12, (-1, 1), (0.5, 5.0))
    for _ in range(100000):
        bids = draw_bids(int(gen.integers(1, 13)))
        rows = rows_of(bids)
        total = sum(quantity for _, quantity, _, _ in rows)
        target = float(gen.uniform(-0.5, total + 0.5))
        outcome = clear_market(build_demand_curve(bids), target)
        expected = brute_force_clear(rows, target)
        if (outcome.p_star, outcome.committed_power, outcome.kind.value) != expected:
            mismatches += 1
    # fleet-scale granularity bound
    granularity_ok = True
    draw_bids = BidDraws(gen, 450, (-1, 1), (1.5, 4.0))
    for _ in range(20):
        bids = draw_bids(450)
        curve = build_demand_curve(bids)
        max_q = float(np.max(bids.quantity))
        for target in np.linspace(0.0, curve.total_quantity, 200):
            out = clear_market(curve, float(target))
            granularity_ok &= abs(out.committed_power - target) <= max_q
    elapsed = time.perf_counter() - start
    report(2, mismatches == 0 and granularity_ok and elapsed < 60.0,
           f"oracle mismatches={mismatches}, granularity ok={granularity_ok}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_3_disaggregation_contract(paired):
    controlled, _, audit, _ = paired
    checked = 0
    exact = True
    for k, bids, p_star, committed in audit:
        if abs(p_star) > 1.0:
            continue  # sentinel
        running = 0.0
        for price, quantity, _, _ in sorted(rows_of(bids), key=price_order):
            if price > p_star:
                running += quantity
            else:
                break
        exact &= running == committed
        checked += 1
    report(3, exact and checked > 0,
           f"{checked} non-sentinel clearings reproduce committed power "
           f"exactly from the broadcast price")


def test_criterion_4_smoothing(paired):
    controlled, uncontrolled, _, elapsed = paired
    rep = compute_metrics(controlled, uncontrolled)
    ok = (rep.frac_instants_not_worse >= 0.90
          and rep.max_fluct_reduction_pct >= 40.0
          and elapsed < 60.0)
    report(4, ok,
           f"not-worse at {100 * rep.frac_instants_not_worse:.1f}% of instants, "
           f"max 10-min fluctuation {rep.max_fluct_controlled_kw:.0f} vs "
           f"{rep.max_fluct_uncontrolled_kw:.0f} kW "
           f"({rep.max_fluct_reduction_pct:.1f}% reduction), "
           f"paired runtime {elapsed:.1f}s")


def test_criterion_5_feedback_on_keeps_s_inside(bias_runs):
    cfg, runs = bias_runs
    ok = True
    details = []
    for bias, (off, on) in runs.items():
        s_on = np.abs(cycle_s_values(on, cfg))
        s_off = np.abs(cycle_s_values(off, cfg))
        frac_ok = float(np.mean(s_on <= 0.9))
        mean_smaller = float(np.mean(s_on)) < float(np.mean(s_off))
        ok &= frac_ok >= 0.99 and mean_smaller
        details.append(f"bias {bias:+.2f}: |S|<=0.9 at {100 * frac_ok:.2f}% of "
                       f"cycles, mean |S| {np.mean(s_on):.3f} vs off "
                       f"{np.mean(s_off):.3f}")
    report("5 (feedback on)", ok, "; ".join(details))


def test_criterion_5_feedback_off_saturates(bias_runs):
    # Faithful to the stated criterion, and expected to fail: with the
    # distribution-table deadbands (0.2-0.4 degC) the thermostat re-engages
    # at least deadband/2 inside the comfort limit, so a fully pinned
    # device averages ~0.08 degC away from its limit and the population
    # mean |S| tops out near 0.92.  Reaching 0.98 would need indoor
    # temperatures to sit beyond the limits, which the comfort guards
    # (and the zero-violation comfort criteria) forbid.
    cfg, runs = bias_runs
    ok = True
    details = []
    for bias, (off, _) in runs.items():
        peak = float(np.max(np.abs(cycle_s_values(off, cfg))))
        ok &= peak >= 0.98
        details.append(f"bias {bias:+.2f}: max |S| {peak:.3f}")
    report("5 (feedback off)", ok, "; ".join(details) + " (threshold 0.98)")


def test_criterion_6_comfort(paired, bias_runs):
    controlled, _, _, _ = paired
    cfg, runs = bias_runs
    ok = True
    details = []
    for label, run in [("unbiased", controlled),
                       ("bias +0.10", runs[0.10][1]),
                       ("bias -0.10", runs[-0.10][1])]:
        pct = 100.0 * run.comfort_violation_acl_min / run.total_acl_min
        ok &= pct <= 1.0
        details.append(f"{label}: {pct:.4f}%")
    report(6, ok, "violation ACL-minutes " + "; ".join(details))


def test_criterion_7_power_balance(bundle, paired):
    cfg, houses, traces, _, _ = bundle
    controlled, uncontrolled, audit, _ = paired
    idx = (controlled.time_s // traces.cadence_s).astype(int)
    balance_ok = True
    for run in (controlled, uncontrolled):
        reconstructed = run.p_ac_actual + traces.p_load_kw[idx] - traces.p_wind_kw[idx]
        err = np.abs(run.p_g - reconstructed)
        balance_ok &= float(np.max(err)) <= 1e-9 * float(np.max(np.abs(run.p_g)))
    # net-load estimation is exact under the two-state device model
    est_ok = True
    for rec in controlled.cycle_records:
        t_bid = rec.k * cfg.control_cycle_s - cfg.bid_lead_s
        j = t_bid // traces.cadence_s
        truth = float(traces.p_load_kw[j]) - float(traces.p_wind_kw[j])
        est_ok &= rec.net_load - truth == 0.0
    # and on a constructed batch
    bids = BidBatch([0.5, -0.25, 0.0], [2.5, 3.125, 1.0078125], [True, True, False],
                    [0, 1, 2])
    est_ok &= estimate_net_load(400.25 + 2.5 + 3.125, bids) - 400.25 == 0.0
    report(7, balance_ok and est_ok,
           f"balance exact={balance_ok}, net-load estimate exact={est_ok} "
           f"over {len(controlled.cycle_records)} cycles")


def test_criterion_8_etp_oracle():
    # 1000 drawn houses, stepped as one fleet
    gen = substream(88, 8)
    cases = [(etp_of(random_table_geometry(gen)), float(gen.uniform(26, 38)),
              float(gen.uniform(0, 900)), bool(gen.integers(0, 2))) for _ in range(1000)]
    params, t_out, solar, cooling = (list(column) for column in zip(*cases))
    targets = np.array([equilibrium_temperature(*case) for case in cases])
    fleet, ws = thermal_fleet(params, 60.0, targets + 0.5)
    advance(fleet, ws, np.array(t_out), np.array(solar), cooling, steps=2500)
    worst_eq = float(np.max(np.abs(fleet.t_air - targets)))
    # dt halving over a one-hour varying trajectory
    coarse = thermal_fleet(params, 60.0, 26.0)
    fine = thermal_fleet(params, 30.0, 26.0)
    for i in range(60):
        t_out_i = 30.0 + 4.0 * math.sin(i / 4.0)
        solar_i = max(0.0, 600.0 * math.cos(i / 9.0))
        on = i % 4 < 2
        advance(*coarse, t_out_i, solar_i, on)
        advance(*fine, t_out_i, solar_i, on, steps=2)
    worst_dt = float(np.max(np.abs(coarse[0].t_air - fine[0].t_air)))
    report(8, worst_eq < 1e-4 and worst_dt < 0.01,
           f"equilibrium max error {worst_eq:.2e} degC (tol 1e-4), "
           f"dt-halving max change {worst_dt:.2e} degC (tol 0.01)")


def test_criterion_9_determinism(bundle, paired):
    cfg, houses, traces, model, _ = bundle
    controlled, _, _, _ = paired
    reference = io.StringIO()
    write_results(reference, controlled)
    repeat = io.StringIO()
    write_results(repeat, run_scenario(cfg, houses, traces, model))
    same = repeat.getvalue() == reference.getvalue()
    report(9, same, f"repeat identical={same} ({len(reference.getvalue())} bytes)")


def test_criterion_10_baseline_fit(bundle):
    cfg, houses, traces, model, samples = bundle
    errs = [predict_baseline(model, t, q, r) - p for t, q, r, p in zip(*samples)]
    rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
    peak = float(np.max(samples.p_ac_free))
    rmse_ok = rmse <= 0.15 * peak
    # exact recovery when targets come from the model's own basis
    gen = substream(10, 10)
    coefs = np.array([40.0, -4.0, 0.02, 0.05, 0.11, 1e-5, 4e-4, 8e-4])
    from tiesmooth.baseline import TrainingColumns
    synth = []
    for _ in range(300):
        t = float(gen.uniform(24, 38))
        q = float(gen.uniform(0, 900))
        r = float(gen.uniform(800, 1500))
        y = float(np.dot(coefs, build_features(t, q, r)))
        synth.append((t, q, r, min(max(y, 0.0), r)))
    synth = TrainingColumns(*(np.array(column) for column in zip(*synth)))
    recovered = np.array(fit_baseline_model(synth).coefficients)
    recovery_ok = np.allclose(recovered, coefs, rtol=1e-8, atol=1e-10)
    report(10, rmse_ok and recovery_ok,
           f"in-sample RMSE {rmse:.1f} kW = {100 * rmse / peak:.2f}% of free "
           f"peak {peak:.0f} kW (tol 15%), exact recovery={recovery_ok}")
