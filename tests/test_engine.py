"""Simulation harness: scheduling, balance, determinism, training runs."""

import io

import numpy as np
import pytest

from tiesmooth.agents import (AclAgentState, apply_clearing_price, compute_soa,
                              thermostat_step)
from tiesmooth.baseline import BaselineModel
from tiesmooth.engine import (NumericAbortError, _advance_slice, _thermostat_slice,
                              build_fleet, fleet_soa, load_run_dir,
                              run_scenario, run_training_simulation,
                              seed_fleet_states, write_results, write_run_dir)
from tiesmooth.market import sequential_sum
from tiesmooth.population import generate_population, total_rated_power_kw
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.thermal import ThermalState, WeatherSample, etp_step
from tiesmooth.traces import TraceSet, generate_traces, quantize_kw


def small_cfg(**overrides):
    base = dict(n_acl=12, seed=9, duration_s=3 * 3600, warmup_s=1800)
    base.update(overrides)
    return ScenarioConfig(**base)


def make_traces(cfg, seed=None, **kwargs):
    return generate_traces(cfg.seed if seed is None else seed, 30.0,
                           warmup_s=cfg.warmup_s,
                           days=max(1, -(-cfg.duration_s // 86400)), **kwargs)


def constant_traces(total_s, t_out=33.0, solar=400.0, load=800.0, wind=200.0):
    n = total_s // 10
    return TraceSet(time_s=np.arange(n, dtype=np.int64) * 10,
                    t_out_c=np.full(n, t_out), solar_wm2=np.full(n, solar),
                    p_load_kw=quantize_kw(np.full(n, load)),
                    p_wind_kw=quantize_kw(np.full(n, wind)), cadence_s=10)


def head(traces, rows):
    return TraceSet(time_s=traces.time_s[:rows], t_out_c=traces.t_out_c[:rows],
                    solar_wm2=traces.solar_wm2[:rows], p_load_kw=traces.p_load_kw[:rows],
                    p_wind_kw=traces.p_wind_kw[:rows], cadence_s=traces.cadence_s)


def flat_model(level_kw):
    return BaselineModel(coefficients=(float(level_kw), 0, 0, 0, 0, 0, 0, 0))


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationSpec(n=12), 9)


class TestVectorKernelsMatchScalarOps:
    def test_thermostat_and_soa_match_agent_module(self, population):
        fleet = build_fleet(population, 5.0)
        seed_fleet_states(fleet, 9)
        gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        fleet.t_air = fleet.t_set + gen.uniform(-4.0, 4.0, fleet.n)
        fleet.on = gen.uniform(size=fleet.n) < 0.5
        fleet.active_setpoint = np.where(gen.uniform(size=fleet.n) < 0.5,
                                         fleet.t_min + fleet.epsilon,
                                         fleet.t_max - fleet.epsilon)
        expected_on, expected_soa = [], []
        for i, house in enumerate(population):
            state = AclAgentState(compressor_on=bool(fleet.on[i]),
                                  soa=0.0,
                                  active_setpoint=float(fleet.active_setpoint[i]))
            stepped = thermostat_step(float(fleet.t_air[i]), state, house.agent)
            expected_on.append(stepped.compressor_on)
            expected_soa.append(compute_soa(float(fleet.t_air[i]), house.agent))
        soa = fleet_soa(fleet)
        _thermostat_slice(fleet)
        assert list(fleet.on) == expected_on
        assert np.allclose(soa, expected_soa, rtol=0, atol=0)

    def test_price_response_matches_agent_module(self, population):
        fleet = build_fleet(population, 5.0)
        seed_fleet_states(fleet, 9)
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 4], dtype=np.uint64)))
        fleet.soa_bid = gen.uniform(-1.0, 1.0, fleet.n)
        for p_star in (-2.0, -0.35, 0.0, float(fleet.soa_bid[0]), 0.6, 2.0):
            vector = np.where(fleet.soa_bid > p_star,
                              fleet.t_min + fleet.epsilon,
                              fleet.t_max - fleet.epsilon)
            for i, house in enumerate(population):
                state = AclAgentState(compressor_on=False,
                                      soa=float(fleet.soa_bid[i]),
                                      active_setpoint=house.agent.t_set)
                expected = apply_clearing_price(p_star, state, house.agent)
                assert vector[i] == expected.active_setpoint

    def test_thermal_advance_matches_etp_step(self, population):
        cfg = small_cfg()
        traces = constant_traces(600)
        result_fleet = build_fleet(population, cfg.sim_step_s)
        seed_fleet_states(result_fleet, cfg.seed)
        t_air0 = result_fleet.t_air.copy()
        t_mass0 = result_fleet.t_mass.copy()
        on = result_fleet.on.copy()
        _advance_slice(result_fleet, 33.0, 400.0)
        w = WeatherSample(33.0, 400.0)
        for i, house in enumerate(population):
            expected = etp_step(ThermalState(float(t_air0[i]), float(t_mass0[i])),
                                house.etp, w, bool(on[i]), float(cfg.sim_step_s))
            assert result_fleet.t_air[i] == expected.t_air
            assert result_fleet.t_mass[i] == expected.t_mass


class TestScheduling:
    def test_one_broadcast_per_cycle(self, population):
        cfg = small_cfg()
        traces = make_traces(cfg)
        result = run_scenario(cfg, population, traces, flat_model(20.0))
        expected_cycles = cfg.total_s // cfg.control_cycle_s - 1
        assert len(result.cycle_records) + len(result.gaps) == expected_cycles
        assert [r.k for r in result.cycle_records] \
            == list(range(1, expected_cycles + 1))

    def test_records_on_cadence(self, population):
        cfg = small_cfg()
        result = run_scenario(cfg, population, make_traces(cfg), flat_model(20.0))
        assert len(result.time_s) == cfg.total_s // cfg.record_cycle_s
        assert np.all(np.diff(result.time_s) == cfg.record_cycle_s)

    def test_uncontrolled_never_clears(self, population):
        cfg = small_cfg()
        result = run_scenario(cfg, population, make_traces(cfg), None,
                              controlled=False)
        assert result.cycle_records == [] and result.gaps == []
        assert np.all(np.isnan(result.p_g_lpf))
        assert np.array_equal(result.p_g0_reference, result.p_g)


class TestPowerBalance:
    def test_identity_exact_at_every_record(self, population):
        cfg = small_cfg()
        traces = make_traces(cfg)
        result = run_scenario(cfg, population, traces, flat_model(20.0))
        idx = (result.time_s // traces.cadence_s).astype(int)
        reconstructed = result.p_ac_actual + traces.p_load_kw[idx] - traces.p_wind_kw[idx]
        assert np.array_equal(result.p_g, reconstructed)

    def test_net_load_estimate_error_is_zero(self, population):
        cfg = small_cfg()
        traces = make_traces(cfg)
        result = run_scenario(cfg, population, traces, flat_model(20.0))
        for rec in result.cycle_records:
            t_bid = rec.k * cfg.control_cycle_s - cfg.bid_lead_s
            idx = t_bid // traces.cadence_s
            truth = float(traces.p_load_kw[idx]) - float(traces.p_wind_kw[idx])
            assert rec.net_load - truth == 0.0

    def test_disaggregation_consistency(self, population):
        # every non-sentinel clearing reproduces committed power from the
        # broadcast price alone
        cfg = small_cfg(duration_s=4 * 3600)
        traces = make_traces(cfg)
        audit = []
        run_scenario(cfg, population, traces, flat_model(25.0), bid_audit=audit)
        normal = [(bids, p_star, committed) for _, bids, p_star, committed in audit
                  if abs(p_star) <= 1.0]
        assert normal, "expected at least one non-sentinel clearing"
        for bids, p_star, committed in normal:
            ordered = sorted(bids, key=lambda b: (-b.price, b.agent_id))
            running = 0.0
            for b in ordered:
                if b.price <= p_star:
                    break
                running += b.quantity
            assert running == committed

    def test_audited_bids_keep_bid_time_state(self, population):
        # a batch lives through the bid lead and, audited, the whole run;
        # its on states must stay those the tie line was metered with
        cfg = small_cfg(duration_s=4 * 3600)
        traces = make_traces(cfg)
        audit = []
        result = run_scenario(cfg, population, traces, flat_model(25.0), bid_audit=audit)
        records = {rec.k: rec for rec in result.cycle_records}
        assert len(audit) == len(records)
        for k, bids, _, _ in audit:
            on_kw = sequential_sum(bids.quantity[bids.on_state])
            assert records[k].p_g_measured - on_kw == records[k].net_load


class TestDeterminism:
    def test_identical_runs_byte_identical(self, population):
        cfg = small_cfg()
        traces = make_traces(cfg)
        out1, out2 = io.StringIO(), io.StringIO()
        write_results(out1, run_scenario(cfg, population, traces, flat_model(20.0)))
        write_results(out2, run_scenario(cfg, population, traces, flat_model(20.0)))
        assert out1.getvalue() == out2.getvalue()

    def test_fleet_prefix_steps_like_full_fleet(self, population):
        # houses step independently and seed from one stream, so a prefix
        # of the fleet evolves bit-for-bit like the same houses in the full
        # fleet; training's enrollment subsets rely on this
        k = 7
        full = build_fleet(population, 5.0)
        part = build_fleet(population[:k], 5.0)
        seed_fleet_states(full, 9)
        seed_fleet_states(part, 9)
        for step in range(100):
            t_out = 30.0 + 4.0 * np.sin(step / 10.0)
            for fleet in (full, part):
                _thermostat_slice(fleet)
                _advance_slice(fleet, t_out, 500.0)
            assert np.array_equal(part.t_air, full.t_air[:k])
            assert np.array_equal(part.t_mass, full.t_mass[:k])
            assert np.array_equal(part.on, full.on[:k])


class TestDegenerateAndFixedPoints:
    def test_zero_houses_tie_line_is_net_load(self):
        cfg = small_cfg(n_acl=1)  # config floor; run with an empty fleet
        traces = make_traces(cfg)
        result = run_scenario(cfg, [], traces, None, controlled=False)
        idx = (result.time_s // traces.cadence_s).astype(int)
        assert np.array_equal(result.p_g,
                              traces.p_load_kw[idx] - traces.p_wind_kw[idx])
        assert np.all(result.p_ac_actual == 0.0)

    def test_zero_houses_controlled_records_gaps(self):
        cfg = small_cfg(n_acl=1, duration_s=3600, warmup_s=0)
        traces = make_traces(cfg)
        result = run_scenario(cfg, [], traces, flat_model(5.0))
        assert result.cycle_records == []
        assert len(result.gaps) == 3600 // 60 - 1

    def test_constant_inputs_reach_quiescent_tracking(self, population):
        # constant free tie-line: the filter converges onto it, the
        # adjustment dies out, and the target settles on the baseline
        cfg = small_cfg(duration_s=6 * 3600, warmup_s=3600)
        total_s = cfg.total_s
        traces = constant_traces(total_s)
        natural = estimate_natural_draw(population, 33.0, 400.0)
        result = run_scenario(cfg, population, traces, flat_model(natural))
        tail = result.cycle_records[-30:]
        for rec in tail:
            assert abs(rec.delta_p_ac) < 0.5
            assert abs(rec.p_ac_target - rec.p_base) < 0.5

    def test_nan_input_aborts_with_cycle_index(self, population):
        cfg = small_cfg(duration_s=3600, warmup_s=0)
        traces = constant_traces(3600)
        bad = TraceSet(time_s=traces.time_s,
                       t_out_c=traces.t_out_c.copy(), solar_wm2=traces.solar_wm2,
                       p_load_kw=traces.p_load_kw, p_wind_kw=traces.p_wind_kw,
                       cadence_s=10)
        bad.t_out_c[120:] = np.nan  # from t = 1200 s onward
        with pytest.raises(NumericAbortError) as err:
            run_scenario(cfg, population, bad, flat_model(20.0))
        assert err.value.cycle >= 1200 // 60


def estimate_natural_draw(population, t_out, solar):
    total = 0.0
    for h in population:
        gains = h.etp.ua_envelope * (t_out - h.agent.t_set) \
            + h.etp.solar_aperture * solar
        total += min(1.0, max(0.0, gains / h.etp.cooling_capacity)) * h.agent.rated_power
    return total


class TestTrainingSimulation:
    def test_cold_weather_draws_nothing(self, population):
        cfg = small_cfg(duration_s=7200, warmup_s=1800)
        cold = constant_traces(cfg.total_s, t_out=18.0, solar=0.0)
        samples = run_training_simulation(cfg, population, [cold])
        assert all(s.p_ac_free == 0.0 for s in samples[20:])

    def test_free_power_bounded_by_rating(self, population):
        cfg = small_cfg(duration_s=7200, warmup_s=1800)
        traces = make_traces(cfg)
        samples = run_training_simulation(cfg, population, [traces])
        total = total_rated_power_kw(population)
        assert all(0.0 <= s.p_ac_free <= total for s in samples)

    def test_hotter_day_uses_at_least_as_much_energy(self, population):
        cfg = small_cfg(duration_s=6 * 3600, warmup_s=1800)
        mild = constant_traces(cfg.total_s, t_out=30.0, solar=300.0)
        hot = constant_traces(cfg.total_s, t_out=35.0, solar=700.0)
        e_mild = sum(s.p_ac_free for s in run_training_simulation(cfg, population, [mild]))
        e_hot = sum(s.p_ac_free for s in run_training_simulation(cfg, population, [hot]))
        assert e_hot >= e_mild

    def test_enrollment_variation_varies_rated_power(self, population):
        cfg = small_cfg(duration_s=3600, warmup_s=0, training_days=3)
        days = [make_traces(cfg, seed=100 + d) for d in range(3)]
        samples = run_training_simulation(cfg, population, days)
        rated_values = {s.total_rated for s in samples}
        assert len(rated_values) == 3  # day 0 full fleet, later days drawn

    def test_enrollment_variation_off_is_constant(self, population):
        cfg = small_cfg(duration_s=3600, warmup_s=0, training_days=2,
                        vary_training_enrollment=False)
        days = [make_traces(cfg, seed=100 + d) for d in range(2)]
        samples = run_training_simulation(cfg, population, days)
        assert len({s.total_rated for s in samples}) == 1

    def test_too_short_day_keeps_later_draws(self, population):
        # a day no longer than the warm-up yields no samples but still
        # consumes its enrollment draw, so day 2 meters the same houses
        cfg = small_cfg(duration_s=1800, warmup_s=1800, training_days=3)
        days = [head(make_traces(cfg, seed=100 + d), cfg.total_s // 10)
                for d in range(3)]
        short = head(days[1], cfg.warmup_s // 10)
        full = run_training_simulation(cfg, population, days)
        skipped = run_training_simulation(cfg, population, [days[0], short, days[2]])
        per_day = len(full) // 3
        assert len({s.total_rated for s in full}) == 3
        assert skipped == full[:per_day] + full[2 * per_day:]


class TestRunDirRoundTrip:
    def test_load_reproduces_run(self, population, tmp_path):
        cfg = small_cfg()
        traces = make_traces(cfg)
        result = run_scenario(cfg, population, traces, flat_model(20.0))
        write_run_dir(tmp_path / "run", result)
        loaded = load_run_dir(tmp_path / "run")
        assert loaded.controlled == result.controlled
        assert np.array_equal(loaded.time_s, result.time_s)
        assert np.array_equal(loaded.p_g, result.p_g)
        assert np.array_equal(np.isnan(loaded.p_g_lpf), np.isnan(result.p_g_lpf))
        assert loaded.cycle_records == result.cycle_records
        assert loaded.total_acl_min == result.total_acl_min
        assert loaded.comfort_violation_acl_min == result.comfort_violation_acl_min


class TestScenarioRatios:
    def test_trace_ratios_near_declared(self):
        # the two scenario anchors hold on the realized day: the fleet's
        # free peak is ~40% of the system peak and wind capacity ~27%
        cfg = ScenarioConfig(n_acl=450, seed=42)
        houses = generate_population(cfg.population_spec(), cfg.seed,
                                     cfg.thermal, cfg.epsilon_margin_c)
        from tiesmooth.population import estimate_free_peak_kw
        from tiesmooth.traces import peak_weather
        free_peak_est = estimate_free_peak_kw(houses, *peak_weather())
        traces = generate_traces(cfg.seed, free_peak_est, warmup_s=cfg.warmup_s)
        free = run_scenario(cfg, houses, traces, None, controlled=False)
        sl = free.metric_slice()
        system = free.p_g + traces.p_wind_kw[(free.time_s // 10).astype(int)]
        system_peak = float(np.max(system[sl]))
        acl_peak = float(np.max(free.p_ac_actual[sl]))
        assert acl_peak / system_peak == pytest.approx(cfg.acl_peak_share, rel=0.10)
        assert traces.wind_capacity_kw / system_peak \
            == pytest.approx(cfg.wind_capacity_ratio, rel=0.10)
