"""Fluctuation-rate windows and paired-run comparison."""

import dataclasses
import io
import math

import numpy as np
import pytest

from tiesmooth.engine import run_scenario
from tiesmooth.baseline import BaselineModel
from tiesmooth.metrics import (WINDOW_S, IncomparableRunsError, WindowError, compute_metrics,
                               fluctuation_series, write_fluctuation_csv,
                               write_report, write_s_trajectory_csv,
                               write_smoothing_csv)
from tiesmooth.population import generate_population
from tiesmooth.rng import substream
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import generate_traces


def fluctuation_rate(p_g, t_s, record_cycle_s, start_time_s=0, window_s=WINDOW_S):
    """Oracle for one point of `fluctuation_series`: max minus min of the
    series over the trailing window (t-w, t]."""
    last = int((t_s - start_time_s) // record_cycle_s)
    first = int(np.floor((t_s - window_s - start_time_s) / record_cycle_s)) + 1
    if first < 0 or last >= len(p_g) or last < first:
        raise WindowError(f"window ({t_s - window_s}, {t_s}] not covered by series")
    chunk = p_g[first:last + 1]
    return float(np.max(chunk) - np.min(chunk))


class TestFluctuationRate:
    def test_constant_series_zero(self):
        series = np.full(100, 250.0)
        assert fluctuation_rate(series, 900.0, 10) == 0.0

    def test_alternating_max_minus_min(self):
        series = np.array([100.0, 110.0] * 50)
        assert fluctuation_rate(series, 900.0, 10) == 10.0

    def test_window_is_trailing_open_closed(self):
        # (t - 600, t]: with 10 s cadence that is exactly 60 samples
        series = np.arange(100.0)
        t = 950.0
        assert fluctuation_rate(series, t, 10) == 59.0

    def test_insufficient_history_rejected(self):
        series = np.arange(30.0)
        with pytest.raises(WindowError):
            fluctuation_rate(series, 200.0, 10)

    def test_matches_naive_scan(self):
        gen = substream(31, 1)
        series = np.asarray(gen.normal(500.0, 40.0, 2000))
        for t in (600.0, 605.0, 1230.0, 19990.0):
            first = int(np.floor((t - 600.0) / 10.0)) + 1
            last = int(t // 10)
            naive = max(series[first:last + 1]) - min(series[first:last + 1])
            assert fluctuation_rate(series, t, 10) == naive

    def test_series_matches_pointwise(self):
        gen = substream(32, 1)
        series = np.asarray(gen.normal(0.0, 1.0, 500))
        rates = fluctuation_series(series, 10)
        assert len(rates) == 500 - 60 + 1
        for i, rate in enumerate(rates):
            t = (i + 59) * 10.0
            assert rate == fluctuation_rate(series, t, 10)


@pytest.fixture(scope="module")
def paired_runs():
    cfg = ScenarioConfig(n_acl=15, seed=5, duration_s=3 * 3600, warmup_s=1800)
    houses = generate_population(PopulationSpec(n=15), 5)
    traces = generate_traces(5, 40.0, warmup_s=1800)
    model = BaselineModel(coefficients=(25.0, 0, 0, 0, 0, 0, 0, 0))
    controlled = run_scenario(cfg, houses, traces, model)
    uncontrolled = run_scenario(cfg, houses, traces, None, controlled=False)
    return controlled, uncontrolled


class TestComputeMetrics:
    def test_self_comparison_is_neutral(self, paired_runs):
        controlled, _ = paired_runs
        report = compute_metrics(controlled, controlled)
        assert report.max_fluct_reduction_pct == 0.0
        assert report.frac_instants_not_worse == 1.0
        assert report.max_fluct_controlled_kw == report.max_fluct_uncontrolled_kw

    def test_pure_thermostat_run_has_zero_violations(self, paired_runs):
        _, free = paired_runs
        assert free.comfort_violation_acl_min == 0.0

    def test_report_fields_populated(self, paired_runs):
        controlled, free = paired_runs
        report = compute_metrics(controlled, free)
        assert report.total_acl_min > 0
        assert report.rmse_tie_tracking_kw >= 0
        assert 0.0 <= report.frac_instants_not_worse <= 1.0
        assert 0.0 <= report.s_max_abs <= 1.0

    def test_reduction_matches_recomputation_from_series(self, paired_runs):
        # independent post-processing of the two record series
        controlled, free = paired_runs
        report = compute_metrics(controlled, free)
        sl = controlled.metric_slice()
        fc = fluctuation_series(controlled.p_g[sl], 10)
        fu = fluctuation_series(free.p_g[sl], 10)
        assert report.max_fluct_controlled_kw == float(np.max(fc))
        assert report.max_fluct_uncontrolled_kw == float(np.max(fu))
        expected = 100.0 * (1.0 - np.max(fc) / np.max(fu))
        assert report.max_fluct_reduction_pct == pytest.approx(expected)
        assert report.frac_instants_not_worse == pytest.approx(float(np.mean(fc <= fu)))

    def test_controlled_run_without_a_cycle_is_incomparable(self, paired_runs):
        # a 4 h cycle never clears inside the 3.5 h run, so nothing was tracked
        _, free = paired_runs
        cfg = ScenarioConfig(n_acl=15, seed=5, duration_s=3 * 3600, warmup_s=1800,
                             control_cycle_s=4 * 3600)
        idle = run_scenario(cfg, generate_population(PopulationSpec(n=15), 5),
                            generate_traces(5, 40.0, warmup_s=1800),
                            BaselineModel(coefficients=(25.0, 0, 0, 0, 0, 0, 0, 0)))
        assert idle.cycle_records == [] and np.isnan(idle.p_g_lpf).all()
        with pytest.raises(IncomparableRunsError, match="cleared no cycle inside its"):
            compute_metrics(idle, free)

    def test_mismatched_lengths_rejected(self, paired_runs):
        controlled, free = paired_runs
        import dataclasses
        short = dataclasses.replace(
            free, time_s=free.time_s[:-5], p_g=free.p_g[:-5],
            p_g0_reference=free.p_g0_reference[:-5], p_g_lpf=free.p_g_lpf[:-5],
            p_ac_actual=free.p_ac_actual[:-5], p_ac_target=free.p_ac_target[:-5],
            s_aggregate=free.s_aggregate[:-5], n_on=free.n_on[:-5])
        with pytest.raises(ValueError):
            compute_metrics(controlled, short)

    @pytest.mark.parametrize("name, value", [
        ("max_fluct_controlled_kw", math.inf), ("median_fluct_uncontrolled_kw", math.nan),
        ("rmse_tie_tracking_kw", math.inf), ("total_acl_min", -1.0),
        ("max_fluct_reduction_pct", -math.inf), ("max_fluct_reduction_pct", math.nan)])
    def test_report_refuses_values_that_are_not_finite(self, paired_runs, name, value):
        report = compute_metrics(*paired_runs)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(report, **{name: value})

    def test_writers_produce_parseable_output(self, paired_runs):
        controlled, free = paired_runs
        report = compute_metrics(controlled, free)
        buf = io.StringIO()
        write_report(buf, report)
        assert "max_fluct_reduction_pct" in buf.getvalue()
        for writer in (write_smoothing_csv, write_fluctuation_csv,
                       write_s_trajectory_csv):
            buf = io.StringIO()
            writer(buf, controlled, free)
            lines = buf.getvalue().strip().split("\n")
            assert len(lines) > 10
            assert all(line.count(",") == 2 for line in lines)
