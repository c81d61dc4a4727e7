"""Coordinator loop: filter, aggregate state, target power, full cycle."""

import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tiesmooth import mgcc
from tiesmooth.baseline import BaselineModel, CorrectionState
from tiesmooth.market import BidBatch
from tiesmooth.mgcc import (CYCLE_CSV_HEADER, ContractError, CycleRecord,
                            compute_aggregate_soa, compute_target_power, lpf_alpha,
                            lpf_step, run_control_cycle, write_cycle_records)
from tiesmooth.scenario import ScenarioConfig

from handmade import lpf_sinusoid_gain


@pytest.fixture
def cfg():
    return ScenarioConfig(tau_s=3000.0, control_cycle_s=60)


def priced(prices, quantity=1.0):
    """Off devices of one rating bidding these prices."""
    n = len(prices)
    return BidBatch(prices, [quantity] * n, [False] * n)


class TestLpf:
    def test_constant_is_fixed_point(self, cfg):
        out = 100.0
        for _ in range(50):
            out = lpf_step(out, 100.0, cfg)
            assert out == 100.0

    def test_table_coefficient_substitution(self, cfg):
        # alpha = 3000 / 3060 = 50/51
        assert lpf_alpha(cfg) == pytest.approx(50.0 / 51.0, rel=1e-15)
        out = lpf_step(0.0, 51.0, cfg)
        assert out == pytest.approx(1.0, rel=1e-12)

    def test_seeding_on_first_sample(self, cfg):
        assert lpf_step(None, 437.5, cfg) == 437.5

    def test_step_response_geometric(self, cfg):
        # closed form: y[k] = u * (1 - alpha^k) from a zero initial state
        a = lpf_alpha(cfg)
        out = 0.0
        for k in range(1, 200):
            out = lpf_step(out, 100.0, cfg)
            assert out == pytest.approx(100.0 * (1.0 - a ** k), rel=1e-9)

    def test_sinusoid_gain_matches_analytic(self, cfg):
        # drive with a 10-minute sinusoid, drop the transient, and fit the
        # steady amplitude with a least-squares sin/cos basis
        period = 600.0
        omega = 2.0 * math.pi / period
        out = 0.0
        outputs, times = [], []
        for k in range(1, 1501):
            t = k * cfg.control_cycle_s
            out = lpf_step(out, math.sin(omega * t), cfg)
            outputs.append(out)
            times.append(t)
        tail_t = np.array(times[-300:])
        tail_y = np.array(outputs[-300:])
        basis = np.column_stack([np.sin(omega * tail_t), np.cos(omega * tail_t)])
        coef, *_ = np.linalg.lstsq(basis, tail_y, rcond=None)
        amplitude = math.hypot(*coef)
        assert amplitude == pytest.approx(lpf_sinusoid_gain(cfg, period), rel=0.02)


class TestAggregateSoa:
    def test_all_zero(self):
        assert compute_aggregate_soa(priced([0.0] * 5)) == 0.0

    def test_symmetry(self):
        assert compute_aggregate_soa(priced([1.0, -1.0])) == 0.0

    def test_mean(self):
        assert compute_aggregate_soa(priced([0.2, 0.4, 0.9])) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_aggregate_soa(priced([]))

    def test_sums_left_to_right(self):
        # sequential, pairwise and compensated summation all disagree here;
        # S must be the plain running sum on every Python and NumPy
        prices = [1.0] + [1e-16] * 10 + [-1.0]
        acc = 0.0
        for p in prices:
            acc += p
        assert acc != math.fsum(prices) and acc != float(np.sum(prices))
        assert compute_aggregate_soa(priced(prices)) == acc / len(prices)

    def test_negative_zero_sums_like_a_loop(self):
        assert math.copysign(1.0, compute_aggregate_soa(priced([-0.0] * 3))) == 1.0


class TestComputeTargetPower:
    def test_hand_chain(self, cfg):
        # independent arithmetic: p_g0 = 500, filter pulls toward 480
        target, p_g0, p_g_lpf = compute_target_power(200.0, 300.0, 480.0, cfg)
        expected_lpf = (50.0 * 480.0 + 500.0) / 51.0
        assert p_g0 == 500.0
        assert p_g_lpf == pytest.approx(expected_lpf, rel=1e-12)
        assert target == pytest.approx(200.0 + expected_lpf - 500.0, rel=1e-12)
        assert target == pytest.approx(180.392156862745, abs=1e-9)

    def test_no_fluctuation_no_adjustment(self, cfg):
        target, p_g0, p_g_lpf = compute_target_power(200.0, 300.0, 500.0, cfg)
        assert p_g_lpf == 500.0 == p_g0
        assert target == 200.0

    def test_negative_target_clamped(self, cfg):
        # prev chosen so the filtered value sits 50 below the free power
        target, p_g0, p_g_lpf = compute_target_power(10.0, 300.0, 259.0, cfg)
        assert p_g0 == 310.0
        assert p_g_lpf == pytest.approx(260.0, rel=1e-12)
        assert target == 0.0


def golden_inputs():
    bids = BidBatch([0.6, 0.2, -0.3, 0.8], [2.0, 3.0, 2.5, 1.5],
                    [True, False, False, True])
    model = BaselineModel(coefficients=(6.0, 0, 0, 0, 0, 0, 0, 0))
    corr = CorrectionState(p_adj_prev=0.5)
    return bids, model, corr, 505.0


class TestRunControlCycle:
    def test_golden_cycle_hand_executed(self, cfg):
        bids, model, corr, lpf = golden_inputs()
        p_star, rec, corr2 = run_control_cycle(
            k=7, bids=bids, p_g_measured=500.0, t_out=33.0, solar=600.0,
            total_rated=9.0, model=model, corr_state=corr, lpf_prev=lpf,
            cfg=cfg)

        # every intermediate recomputed with independent scalar arithmetic
        net = 500.0 - (2.0 + 1.5)
        s = (0.6 + 0.2 - 0.3 + 0.8) / 4.0
        p_base0 = 6.0
        p_adj = 0.0 + 0.5 * math.exp(-0.02)        # |S| below the deadband
        p_base = p_base0 + p_adj
        p_g0 = p_base + net
        p_g_lpf = (50.0 * 505.0 + p_g0) / 51.0
        target = p_base + (p_g_lpf - p_g0)
        # curve: prices [0.8, 0.6, 0.2, -0.3], cumulative [1.5, 3.5, 6.5, 9.0];
        # target ~ 8.46 sits in the last block, closer to 9.0 -> commit all
        assert rec.net_load == net
        assert rec.s_aggregate == pytest.approx(s)
        assert rec.p_base0 == p_base0
        assert rec.p_base == pytest.approx(p_base, rel=1e-12)
        assert rec.p_g0 == pytest.approx(p_g0, rel=1e-12)
        assert rec.p_g_lpf == pytest.approx(p_g_lpf, rel=1e-12)
        assert rec.p_ac_target == pytest.approx(target, rel=1e-12)
        assert 6.5 < target < 9.0 and (9.0 - target) < (target - 6.5)
        assert rec.committed_power == 9.0
        assert p_star == pytest.approx((-0.3 + -2.0) / 2.0)
        assert rec.k == 7 and rec.p_star == p_star
        assert corr2.p_adj_prev == pytest.approx(p_adj, rel=1e-12)

    def test_feedback_disabled_bypasses_correction(self, cfg):
        bids, model, corr, lpf = golden_inputs()
        off = replace(cfg, soa_feedback_enabled=False)
        _, rec, corr2 = run_control_cycle(
            1, bids, 500.0, 33.0, 600.0, 9.0, model, corr, lpf, off)
        assert rec.p_base == rec.p_base0
        assert corr2 is corr

    def test_baseline_bias_injects_error(self, cfg):
        bids, model, corr, lpf = golden_inputs()
        _, rec, _ = run_control_cycle(
            1, bids, 500.0, 33.0, 600.0, 9.0, model, CorrectionState(0.0), lpf,
            replace(cfg, baseline_bias=0.10))
        assert rec.p_base0 == pytest.approx(6.0 * 1.10, rel=1e-12)

    def test_empty_bids_rejected(self, cfg):
        # every cycle clears against a bid from every device; none is no cycle
        _, model, corr, lpf = golden_inputs()
        with pytest.raises(ValueError):
            run_control_cycle(1, priced([]), 500.0, 33.0, 600.0, 9.0, model, corr, lpf, cfg)

    def test_quiescent_fixed_point(self, cfg):
        # fleet at zero temperature state, filter already settled: the
        # target equals the baseline and clearing commits nearest power
        bids = priced([0.0] * 5, quantity=2.0)
        model = BaselineModel(coefficients=(6.0, 0, 0, 0, 0, 0, 0, 0))
        p_star, rec, _ = run_control_cycle(
            1, bids, 500.0, 33.0, 600.0, 10.0, model, CorrectionState(0.0),
            506.0, cfg)
        assert rec.p_ac_target == rec.p_base == 6.0
        assert rec.delta_p_ac == 0.0
        # 6.0 splits the single price group 0/10 -> closest is all on
        assert rec.committed_power == 10.0


class TestCycleRecordCsv:
    def test_header_and_round_trip(self, cfg):
        bids, model, corr, lpf = golden_inputs()
        _, rec, _ = run_control_cycle(3, bids, 500.0, 33.0, 600.0, 9.0,
                                         model, corr, lpf, cfg)
        buf = io.StringIO()
        write_cycle_records(buf, [rec])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CYCLE_CSV_HEADER
        assert lines[0] == ("k,p_g_measured,net_load,p_base0,p_base,p_g0,"
                            "p_g_lpf,p_ac_target,s_aggregate,p_star,"
                            "committed_power")
        values = lines[1].split(",")
        assert int(values[0]) == 3
        assert float(values[1]) == rec.p_g_measured
        assert float(values[7]) == rec.p_ac_target
        assert float(values[10]) == rec.committed_power

    def test_record_identities_enforced(self):
        with pytest.raises(ContractError):
            CycleRecord(k=0, p_g_measured=1.0, net_load=1.0, p_base0=1.0,
                        p_base=1.0, p_g0=99.0, p_g_lpf=1.0,
                        p_ac_target=1.0, s_aggregate=0.0, p_star=0.0,
                        committed_power=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", CYCLE_CSV_HEADER.split(",")[1:])
    def test_non_finite_field_refused(self, cfg, name, value):
        # a NaN filter output once passed both identities as max(0.0, nan) = 0.0
        bids, model, corr, lpf = golden_inputs()
        _, rec, _ = run_control_cycle(3, bids, 500.0, 33.0, 600.0, 9.0, model, corr, lpf, cfg)
        with pytest.raises(ContractError, match=f"^cycle 3: {name} {value!r} is not finite$"):
            replace(rec, **{name: value})

    def test_record_identities_survive_optimize_flag(self):
        # python -O strips assert statements; the identities must still raise
        src = Path(mgcc.__file__).resolve().parents[1]
        code = ("from tiesmooth.mgcc import ContractError, CycleRecord\n"
                "try:\n"
                "    CycleRecord(k=0, p_g_measured=1.0, net_load=1.0, p_base0=1.0,\n"
                "                p_base=1.0, p_g0=99.0, p_g_lpf=1.0,\n"
                "                p_ac_target=1.0, s_aggregate=0.0, p_star=0.0,\n"
                "                committed_power=0.0)\n"
                "except ContractError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def test_broadcast_contract_breach_raises(cfg, monkeypatch):
    bids, model, corr, lpf = golden_inputs()
    monkeypatch.setattr(mgcc, "committed_power_at_price", lambda curve, p: -1.0)
    with pytest.raises(ContractError):
        run_control_cycle(3, bids, 500.0, 33.0, 600.0, 9.0, model, corr, lpf, cfg)
