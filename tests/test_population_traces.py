"""Fleet synthesis and input-trace generation."""

import io
import math

import numpy as np
import pytest

from tiesmooth.population import (estimate_free_peak_kw, generate_population,
                                  quantize_power_kw, total_rated_power_kw)
from tiesmooth.scenario import PopulationSpec
from tiesmooth.thermal import POWER_QUANTUM_KW
from tiesmooth.traces import (TRACE_CSV_HEADER, generate_traces,
                              generate_training_traces, peak_weather,
                              read_traces, write_traces)


class TestGeneratePopulation:
    def test_deterministic_for_seed(self):
        spec = PopulationSpec(n=40)
        assert generate_population(spec, 123) == generate_population(spec, 123)
        assert generate_population(spec, 123) != generate_population(spec, 124)

    def test_house_draws_independent_of_population_size(self):
        small = generate_population(PopulationSpec(n=5), 7)
        large = generate_population(PopulationSpec(n=20), 7)
        assert large[:5] == small

    def test_floor_area_mean_matches_distribution(self):
        houses = generate_population(PopulationSpec(n=10000), 3)
        mean = np.mean([h.geometry.floor_area for h in houses])
        assert mean == pytest.approx(132.0, rel=0.02)

    def test_normals_truncated_at_three_sigma(self):
        houses = generate_population(PopulationSpec(n=3000), 11)
        for h in houses:
            assert abs(h.geometry.air_change_rate - 0.5) <= 3 * 0.06 + 1e-12
            assert abs(h.geometry.r_window - 0.38) <= 3 * 0.03 + 1e-12
            assert abs(h.agent.t_set - 26.0) <= 3 * 0.5 + 1e-12

    def test_controller_invariants_hold(self):
        houses = generate_population(PopulationSpec(n=500), 19)
        for h in houses:
            a = h.agent
            assert 0 < a.deadband < min(a.t_high, a.t_low)
            assert a.epsilon + a.deadband / 2 <= min(a.t_high, a.t_low)
            assert a.t_min < a.t_set < a.t_max

    def test_ratings_are_dyadic(self):
        houses = generate_population(PopulationSpec(n=100), 23)
        for h in houses:
            steps = h.agent.rated_power / POWER_QUANTUM_KW
            assert steps == round(steps)
            # capacity restated from the quantized rating keeps the ratio exact
            assert h.etp.rated_electrical_power \
                == pytest.approx(h.etp.cooling_capacity / h.geometry.eer, rel=1e-12)

    def test_quantize_power(self):
        assert quantize_power_kw(2.73072) * 1024 == round(2.73072 * 1024)
        assert quantize_power_kw(0.0) == 0.0


class TestFreePeakEstimate:
    def test_zero_when_mild(self):
        houses = generate_population(PopulationSpec(n=20), 5)
        assert estimate_free_peak_kw(houses, 20.0, 0.0) == 0.0

    def test_bounded_by_total_rating(self):
        houses = generate_population(PopulationSpec(n=50), 5)
        total = total_rated_power_kw(houses)
        assert 0 < estimate_free_peak_kw(houses, *peak_weather()) < total
        assert estimate_free_peak_kw(houses, 60.0, 2000.0) == pytest.approx(total)


class TestGenerateTraces:
    def test_deterministic(self):
        a = generate_traces(42, 800.0)
        b = generate_traces(42, 800.0)
        for field in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_solar_zero_at_midnight(self):
        t = generate_traces(1, 800.0, warmup_s=7200)
        midnight = np.flatnonzero((t.time_s - 7200) % 86400 == 0)
        assert np.all(t.solar_wm2[midnight] == 0.0)
        assert np.all(t.solar_wm2 >= 0.0)

    def test_wind_mean_reversion(self):
        t = generate_traces(9, 800.0, days=2)
        wind = t.p_wind_kw - np.mean(t.p_wind_kw)
        lag = 60  # 10 minutes at the 10 s cadence
        rho = float(np.dot(wind[:-lag], wind[lag:])
                    / math.sqrt(np.dot(wind[:-lag], wind[:-lag])
                                * np.dot(wind[lag:], wind[lag:])))
        assert 0.0 < rho < 1.0

    def test_wind_within_capacity(self):
        t = generate_traces(4, 800.0)
        assert np.all(t.p_wind_kw >= 0.0)
        assert np.all(t.p_wind_kw <= t.wind_capacity_kw)

    def test_powers_quantized(self):
        t = generate_traces(3, 800.0)
        for col in (t.p_load_kw, t.p_wind_kw):
            steps = col / POWER_QUANTUM_KW
            assert np.array_equal(steps, np.round(steps))

    def test_days_scale_length(self):
        one = generate_traces(2, 800.0, days=1, warmup_s=7200)
        three = generate_traces(2, 800.0, days=3, warmup_s=7200)
        assert len(three) * three.cadence_s == 7200 + 3 * 86400
        assert len(three) - len(one) == 2 * 86400 // 10

    def test_training_days_distinct(self):
        days = generate_training_traces(21, 800.0, days=3)
        assert len(days) == 3
        peaks = [float(np.max(d.t_out_c)) for d in days]
        assert len(set(peaks)) == 3


class TestTraceCsv:
    def test_round_trip_bytes(self):
        t = generate_traces(13, 900.0)
        buf = io.StringIO()
        write_traces(buf, t)
        text = buf.getvalue()
        assert text.startswith(TRACE_CSV_HEADER)
        loaded = read_traces(io.StringIO(text))
        buf2 = io.StringIO()
        write_traces(buf2, loaded)
        assert buf2.getvalue() == text

    def test_cadence_check(self):
        t = generate_traces(13, 900.0)
        buf = io.StringIO()
        write_traces(buf, t)
        with pytest.raises(ValueError):
            read_traces(io.StringIO(buf.getvalue()), cadence_s=60)

    def test_header_check(self):
        with pytest.raises(ValueError):
            read_traces(io.StringIO("wrong,header\n1,2,3,4,5\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, value):
        text = f"{TRACE_CSV_HEADER}\n0,30.0,0.0,100.0,5.0\n10,30.0,{value},100.0,5.0\n"
        with pytest.raises(ValueError, match="non-finite"):
            read_traces(io.StringIO(text))

    def test_short_rows_rejected(self):
        text = f"{TRACE_CSV_HEADER}\n0,30.0,0.0,100.0\n10,30.0,0.0,100.0\n"
        with pytest.raises(ValueError):
            read_traces(io.StringIO(text))
