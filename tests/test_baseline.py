"""Baseline regression and feedback-correction behavior."""

import math

import numpy as np
import pytest

from tiesmooth.baseline import (FEATURE_NAMES, BaselineModel, CorrectionParams,
                                CorrectionState, RankDeficientError,
                                TrainingColumns, build_features, correct_baseline,
                                delta_p_adj, fit_baseline_model, predict_baseline)
from tiesmooth.rng import substream


def synth_samples(coefs, n=200, noise=0.0, seed=1, rated=(800.0, 1400.0)):
    """Samples generated exactly from a coefficient vector (plus noise)."""
    gen = substream(seed, 77)
    out = []
    for _ in range(n):
        t = float(gen.uniform(24.0, 38.0))
        q = float(gen.uniform(0.0, 900.0))
        r = float(gen.uniform(*rated))
        y = float(np.dot(coefs, build_features(t, q, r)))
        y += float(gen.normal(0.0, noise)) if noise else 0.0
        out.append((t, q, r, min(max(y, 0.0), r)))
    return TrainingColumns(*(np.array(column) for column in zip(*out)))


TRUE_COEFS = np.array([40.0, -4.0, 0.02, 0.05, 0.11, 1e-5, 4e-4, 8e-4])


class TestFeatures:
    def test_zeros_propagate(self):
        assert list(build_features(0.0, 0.0, 7.0)) == [1, 0, 0, 7, 0, 0, 0, 0]

    def test_direct_products(self):
        f = build_features(30.0, 500.0, 1000.0)
        assert list(f) == [1.0, 30.0, 500.0, 1000.0, 900.0, 250000.0,
                           15000.0, 30000.0]

    def test_length_always_eight(self):
        for args in ((1, 2, 3), (-5, 0, 1), (100, 900, 2000)):
            assert len(build_features(*args)) == len(FEATURE_NAMES) == 8

    def test_columns_give_the_rows_of_scalars(self):
        t, q, r, _ = synth_samples(TRUE_COEFS, n=50)
        x = build_features(t, q, r)
        assert x.shape == (50, len(FEATURE_NAMES))
        for row, args in zip(x, zip(t, q, r)):
            assert row.tobytes() == build_features(*map(float, args)).tobytes()


class TestFit:
    def test_exact_recovery(self):
        model = fit_baseline_model(synth_samples(TRUE_COEFS))
        got = np.array(model.coefficients)
        assert np.allclose(got, TRUE_COEFS, rtol=1e-8, atol=1e-10)

    def test_noise_rmse_bounded(self):
        # Monte-Carlo over seeds: in-sample RMSE of least squares cannot
        # exceed the injected noise level (plus estimation slack)
        sigma = 12.0
        for seed in (1, 2, 3, 4, 5):
            samples = synth_samples(TRUE_COEFS, n=400, noise=sigma, seed=seed)
            model = fit_baseline_model(samples)
            errs = [predict_baseline(model, t, q, r) - p for t, q, r, p in zip(*samples)]
            rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
            assert rmse <= sigma * 1.1

    def test_duplicate_sample_no_change(self):
        samples = synth_samples(TRUE_COEFS, n=120)
        m1 = fit_baseline_model(samples)
        m2 = fit_baseline_model(TrainingColumns(*(np.append(c, c[0]) for c in samples)))
        assert np.allclose(m1.coefficients, m2.coefficients, rtol=1e-8)

    def test_refit_on_own_predictions_idempotent(self):
        samples = synth_samples(TRUE_COEFS, n=150)
        m1 = fit_baseline_model(samples)
        refit = samples._replace(p_ac_free=np.array(
            [predict_baseline(m1, t, q, r) for t, q, r, _ in zip(*samples)]))
        m2 = fit_baseline_model(refit)
        assert np.allclose(m1.coefficients, m2.coefficients, rtol=1e-7, atol=1e-9)

    def test_constant_rated_power_is_rank_deficient(self):
        samples = synth_samples(TRUE_COEFS, rated=(1000.0, 1000.0 + 1e-13))
        with pytest.raises(RankDeficientError) as err:
            fit_baseline_model(samples)
        named = err.value.columns
        assert any("total_rated" in c for c in named)

    def test_too_few_samples(self):
        with pytest.raises(RankDeficientError):
            fit_baseline_model(synth_samples(TRUE_COEFS, n=5))

    @pytest.mark.parametrize("column, value", [
        ("total_rated", 0.0), ("total_rated", np.nan),
        ("p_ac_free", -1.0), ("p_ac_free", 5000.0), ("p_ac_free", np.nan)])
    def test_out_of_range_sample_rejected(self, column, value):
        samples = synth_samples(TRUE_COEFS, n=30)
        getattr(samples, column)[7] = value
        with pytest.raises(ValueError, match=column):
            fit_baseline_model(samples)

    def test_unequal_columns_rejected(self):
        samples = synth_samples(TRUE_COEFS, n=30)
        with pytest.raises(ValueError, match="length"):
            fit_baseline_model(samples._replace(solar=samples.solar[:-1]))


class TestPredict:
    def test_training_point_reproduced(self):
        samples = synth_samples(TRUE_COEFS, n=100)
        model = fit_baseline_model(samples)
        t, q, r, p = (float(column[3]) for column in samples)
        assert predict_baseline(model, t, q, r) == pytest.approx(p, rel=1e-8)

    def test_clamps_negative_to_zero(self):
        model = BaselineModel(coefficients=(-500.0, 0, 0, 0, 0, 0, 0, 0))
        assert predict_baseline(model, 30.0, 100.0, 1000.0) == 0.0

    def test_clamps_to_total_rated(self):
        model = BaselineModel(coefficients=(5000.0, 0, 0, 0, 0, 0, 0, 0))
        assert predict_baseline(model, 30.0, 100.0, 1000.0) == 1000.0


class TestDeltaPAdj:
    def test_table_breakpoints(self):
        p = CorrectionParams()
        assert delta_p_adj(0.5, p) == pytest.approx(1.0)
        assert delta_p_adj(1.0, p) == pytest.approx(3.0)
        assert delta_p_adj(-0.8, p) == pytest.approx(-2.0)
        assert delta_p_adj(0.3, p) == 0.0

    def test_odd_function(self):
        p = CorrectionParams()
        for s in np.linspace(0.0, 1.0, 101):
            assert delta_p_adj(-float(s), p) == -delta_p_adj(float(s), p)

    def test_nondecreasing_and_bounded(self):
        p = CorrectionParams()
        grid = np.linspace(-1.0, 1.0, 401)
        values = [delta_p_adj(float(s), p) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(abs(v) <= p.dp3 for v in values)

    def test_zero_inside_deadband(self):
        p = CorrectionParams()
        for s in np.linspace(-0.499, 0.499, 41):
            assert delta_p_adj(float(s), p) == 0.0

    def test_continuous_between_breakpoints(self):
        # the response steps from 0 to dp1 at the deadband edge by design;
        # everywhere else it is continuous
        p = CorrectionParams()
        eps = 1e-9
        for s0 in (0.65, 0.8, 0.9, 1.0 - eps):
            a = delta_p_adj(s0 - eps, p)
            b = delta_p_adj(min(s0 + eps, 1.0), p)
            assert abs(b - a) < 1e-6

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            delta_p_adj(1.5, CorrectionParams())


class TestCorrectBaseline:
    def test_table_substitution(self):
        p_base, st = correct_baseline(200.0, 0.5, CorrectionState(0.0),
                                      CorrectionParams())
        assert st.p_adj_prev == pytest.approx(2.0)
        assert p_base == pytest.approx(202.0)

    def test_decay_toward_zero(self):
        p_base, st = correct_baseline(200.0, 0.0, CorrectionState(2.0),
                                      CorrectionParams())
        assert st.p_adj_prev == pytest.approx(2.0 * math.exp(-0.02))
        assert p_base == pytest.approx(200.0 + 2.0 * math.exp(-0.02))

    def test_geometric_contraction(self):
        params = CorrectionParams()
        st = CorrectionState(10.0)
        values = []
        for _ in range(300):
            _, st = correct_baseline(100.0, 0.0, st, params)
            values.append(st.p_adj_prev)
        assert values[-1] == pytest.approx(10.0 * math.exp(-0.02 * 300), rel=1e-9)
        assert values[-1] < 0.05

    def test_accumulation_sign_follows_s(self):
        params = CorrectionParams()
        for s, sign in ((0.6, 1.0), (-0.6, -1.0), (1.0, 1.0), (-1.0, -1.0)):
            st = CorrectionState(0.0)
            prev = 0.0
            for _ in range(50):
                _, st = correct_baseline(100.0, s, st, params)
                assert math.copysign(1.0, st.p_adj_prev) == sign
                assert abs(st.p_adj_prev) > abs(prev)
                prev = st.p_adj_prev

    def test_invariants(self):
        with pytest.raises(ValueError):
            CorrectionParams(s1=0.9, s2=0.8)
        with pytest.raises(ValueError):
            CorrectionParams(dp1=0.0)
        with pytest.raises(ValueError):
            CorrectionParams(gamma=-1.0)
        with pytest.raises(ValueError):
            correct_baseline(-5.0, 0.0, CorrectionState(0.0), CorrectionParams())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = fit_baseline_model(synth_samples(TRUE_COEFS))
        path = tmp_path / "model.txt"
        model.save(path)
        loaded = BaselineModel.load(path)
        assert loaded.coefficients == model.coefficients
        text = path.read_text()
        for name in FEATURE_NAMES:
            assert name in text

    def test_identical_predictions_after_reload(self, tmp_path):
        model = fit_baseline_model(synth_samples(TRUE_COEFS))
        path = tmp_path / "model.txt"
        model.save(path)
        loaded = BaselineModel.load(path)
        for t, q, r in ((25, 0, 900), (33.5, 640, 1100), (38, 900, 1300)):
            assert predict_baseline(loaded, t, q, r) \
                == predict_baseline(model, t, q, r)
