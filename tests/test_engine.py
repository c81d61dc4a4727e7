"""Simulation harness: scheduling, balance, determinism, training runs."""

import dataclasses
import hashlib
import io
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiesmooth.engine as engine
import tiesmooth.mgcc as mgcc
from tiesmooth.agents import controller_faults
from tiesmooth.baseline import BaselineModel
from tiesmooth.engine import (NumericAbortError, RunResult, Workspace, _advance_slice,
                              _thermostat_slice, build_fleet, load_run_dir,
                              run_scenario, run_training_simulation,
                              seed_fleet_states, write_results, write_run_dir)
from tiesmooth.market import sequential_sum
from tiesmooth.mgcc import ContractError, CycleRecord
from tiesmooth.population import (Population, aligned, estimate_free_peak_kw,
                                  generate_population, total_rated_power_kw)
from tiesmooth.rng import ENROLLMENT_STREAM, substream
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import (TraceSet, generate_traces, generate_training_traces,
                              peak_weather, quantize_kw)

from handmade import controller, etp, house_rows, population_of
from test_market import price_levels, rows_of


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


def run_audited(cfg, houses, traces, model):
    """A controlled run and (k, bid batch, p_star, committed_power) of each
    cycle it cleared, captured at the engine's `run_control_cycle` seam."""
    audit = []

    def audited(k, bids, *args):
        p_star, rec, corr, lpf = mgcc.run_control_cycle(k, bids, *args)
        audit.append((k, bids, p_star, rec.committed_power))
        return p_star, rec, corr, lpf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "run_control_cycle", audited)
        return run_scenario(cfg, houses, traces, model), audit


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationSpec(n=12), 9)


def one_line_thermostat(fleet):
    """The thermostat as a single boolean expression over fresh arrays."""
    t, sp, h = fleet.t_air, fleet.active_setpoint, fleet.half_deadband
    return (((fleet.on | (t > sp + h)) & ~(t < sp - h) | (t >= fleet.t_max))
            & ~(t <= fleet.t_min))


def fused_thresholds(fleet):
    """The thresholds a fresh Workspace holds: sp ± h with the guards folded in."""
    sp, h = fleet.active_setpoint, fleet.half_deadband
    return (np.minimum(sp + h, np.nextafter(fleet.t_max, -np.inf)),
            np.maximum(sp - h, np.nextafter(fleet.t_min, np.inf)))


def thresholds_fresh(fleet, ws):
    on_above, off_below = fused_thresholds(fleet)
    return np.array_equal(ws.on_above, on_above) and np.array_equal(ws.off_below, off_below)


class TestThermostatKernel:
    """The in-place thermostat with fused thresholds against one expression."""

    @staticmethod
    def edge_states(fleet, gen):
        sp, h = fleet.active_setpoint, fleet.half_deadband
        choices = np.stack([sp + h, sp - h, fleet.t_max, fleet.t_min,
                            np.full(fleet.n, np.nan),
                            fleet.t_set + gen.uniform(-4.0, 4.0, fleet.n)])
        pick = gen.integers(0, len(choices), fleet.n)
        fleet.t_air = choices[pick, np.arange(fleet.n)]
        fleet.on = gen.uniform(size=fleet.n) < 0.5

    def test_edges_match_one_line_expression(self, population):
        fleet = build_fleet(population.take(np.tile(np.arange(len(population)), 20)), 5.0)
        seed_fleet_states(fleet, 9)
        gen = np.random.Generator(np.random.Philox(key=np.array([5, 6], dtype=np.uint64)))
        ws = Workspace(fleet)
        for _ in range(30):
            self.edge_states(fleet, gen)
            expected = one_line_thermostat(fleet)
            _thermostat_slice(fleet, ws)
            assert np.array_equal(fleet.on, expected)

    def test_setpoint_change_refreshes_thresholds(self, population):
        fleet = build_fleet(population.take(np.tile(np.arange(len(population)), 20)), 5.0)
        seed_fleet_states(fleet, 9)
        gen = np.random.Generator(np.random.Philox(key=np.array([7, 8], dtype=np.uint64)))
        ws = Workspace(fleet)
        for _ in range(10):
            fleet.active_setpoint = np.where(gen.uniform(size=fleet.n) < 0.5,
                                             fleet.t_min + fleet.epsilon,
                                             fleet.t_max - fleet.epsilon)
            ws.set_thresholds(fleet)
            assert thresholds_fresh(fleet, ws)
            self.edge_states(fleet, gen)
            expected = one_line_thermostat(fleet)
            _thermostat_slice(fleet, ws)
            assert np.array_equal(fleet.on, expected)

    def test_controlled_run_keeps_thresholds_fresh(self, population, monkeypatch):
        thermostat = engine._thermostat_slice
        fresh, moved = [], []

        def checked(fleet, ws):
            fresh.append(thresholds_fresh(fleet, ws))
            moved.append(not np.array_equal(fleet.active_setpoint, fleet.t_set))
            thermostat(fleet, ws)

        monkeypatch.setattr(engine, "_thermostat_slice", checked)
        cfg = small_cfg(duration_s=3600, warmup_s=0)
        run_scenario(cfg, population, make_traces(cfg), flat_model(20.0))
        assert len(fresh) == cfg.total_s // cfg.sim_step_s
        assert all(fresh) and any(moved)


# a valid house: the controller kernels never read its thermal parameters
ETP = etp(c_air=1e6, c_mass=4e5, ua_envelope=200.0, h_mass=600.0, solar_aperture=5.0,
          cooling_capacity=5000.0, rated_electrical_power=1500.0)


@st.composite
def controllers(draw):
    """Any valid controller; epsilon below deadband/2 puts sp + h past t_max."""
    t_high, t_low = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    deadband = draw(st.floats(0.01, 0.999)) * min(t_high, t_low)
    epsilon = draw(st.floats(1e-4, 1.0)) * (min(t_high, t_low) - deadband / 2.0)
    settings = dict(t_set=draw(st.floats(18.0, 30.0)), deadband=deadband, t_high=t_high,
                    t_low=t_low, rated_power=2.5, epsilon=epsilon)
    # at the top of the range, rounding can put epsilon + deadband/2 one ulp
    # past the narrower band, which the controller checks rightly reject
    assume(not controller_faults(settings))
    return controller(**settings)


class TestFusedThermostat:
    """Guards folded into the thresholds against the unfused expression."""

    @settings(max_examples=60, deadline=None)
    @given(controllers())
    def test_every_threshold_neighbour_and_nan(self, cfg):
        # the three setpoints the market sets, each threshold of the unfused
        # rule with both neighbours, and NaN, under both on-states
        half = cfg.deadband / 2.0
        setpoints = [cfg.t_set, cfg.t_min + cfg.epsilon, cfg.t_max - cfg.epsilon]
        cases = []
        for sp in setpoints:
            edges = np.array([sp + half, sp - half, cfg.t_max, cfg.t_min])
            temps = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                    np.nextafter(edges, np.inf), [np.nan]])
            cases += [(sp, t, on) for t in temps for on in (False, True)]
        sp, t_air, on = (np.array(column) for column in zip(*cases))
        fleet = build_fleet(population_of([ETP] * len(cases), [cfg] * len(cases)), 5.0)
        fleet.active_setpoint, fleet.t_air, fleet.on = sp, t_air, on.astype(bool)
        ws = Workspace(fleet)
        expected = one_line_thermostat(fleet)
        _thermostat_slice(fleet, ws)
        assert np.array_equal(fleet.on, expected)

    def test_band_starting_at_upper_limit_rejected(self):
        cfg = controller(t_set=26.0, deadband=0.3, t_high=2.5, t_low=2.5,
                         rated_power=2.5, epsilon=0.2)
        fleet = build_fleet(population_of([ETP] * 3, [cfg] * 3), 5.0)
        ws = Workspace(fleet)
        fleet.active_setpoint[1] = cfg.t_max + cfg.deadband / 2.0  # sp - h == t_max
        with pytest.raises(ContractError, match="upper comfort limit"):
            ws.set_thresholds(fleet)
        with pytest.raises(ContractError):
            Workspace(fleet)


class TestBuildFleet:
    def test_arrays_pinned(self):
        # the sha256 of every array at n = 2 000, seed 42, as the per-house
        # scalar discretization gave them
        cfg = ScenarioConfig(n_acl=2000, seed=42)
        houses = generate_population(cfg.population_spec(), cfg.seed, cfg.thermal,
                                     cfg.epsilon_margin_c)
        fleet = build_fleet(houses, cfg.sim_step_s)
        digests = {name: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
                   for name, value in vars(fleet).items() if isinstance(value, np.ndarray)}
        t_set = "a5faeda529d1bb6ad34bb0a328edf78b0d9d38982555097fedfb90807a25d144"
        assert digests == {
            "rated_kw": "2ffcbf97e6e4652f901de801c66768667be196bb1e3d3c7c7c44621055207f44",
            "t_set": t_set,
            "half_deadband": "961355bcac0a1920c945f0892794ae384ed79c4028ac791233a3f19cdc5f53f8",
            "t_min": "82aa8de7b44cecd508944a18ea0bb7dcbf80179550a19674af4ec706544c4736",
            "t_max": "68df88328d563ba40f2b2f8d5a43ce8c8a3e0512bc820e366271b3b339dd6c66",
            "epsilon": "7b9312b3433a3852bafb7e9d404b3cca7905517404e8109001aa8b543e99bee3",
            "t_high": "f24aa52bc254d76bb71c1a75a8d92e1a1b7d94849a4cd91193769fe733f57a26",
            "t_low": "7e0d6a3505acdefe2c80c7d0b52aa1065fd34ca3a308f7f8b256c2d21785ef40",
            "ad11": "2dd3d2293be9768fd070e2ab6543a6f386957ef57d9c699b2e8b3c7456c42df6",
            "ad12": "69707cdb33013138a2e0c22cd22013ecc88d26503ba87635e5c99c60dcf34034",
            "ad21": "575e2024bb1f754e373a019bfafd1a061588b3307ccdfb043bdf78635b735e5d",
            "ad22": "303be0e27eda7a1701e026557e200cb800cc576e0cdabd8d766b2c4cbbc9e980",
            "m1": "d64b6d3ac5d1cc6819417b9bdfe91ed51bb6a82cce82f23132f3cb25ad0fa9d8",
            "m2": "4dcc08276b8aef2a51133a6696f952752cbdd8682a6fc6fe52c6d96df532e8ee",
            "ua": "e6809dcc408d1a7048c9636e958efae791a4df35a29a4f10a4b56e3f6ba2d39f",
            "aperture": "84123f66519fc4eb00d9ec468ac43dabaf2e1c38cbd643f8e01344cb2b80db35",
            "cap_w": "6db47001e02450ea4276a09409e2a2a39c075f62ed03c29e06098e930be7751e",
            "c_air": "7f736fb93e20f8a89898a06d7d57979a6519554168e4ec4a9c5607b629ca4040",
            "t_air": t_set, "t_mass": t_set, "active_setpoint": t_set,
            "on": "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
            "soa_bid": "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997"}


def misaligned(arrays):
    """Names of the arrays whose data starts off a 64-byte boundary."""
    arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
    assert arrays
    return sorted(name for name, a in arrays.items() if a.ctypes.data % 64)


class TestAlignment:
    """Every array a step kernel reads or writes starts on a cache line."""

    @staticmethod
    def fleet_and_workspace_misaligned(fleet):
        return misaligned(vars(fleet)), misaligned(vars(Workspace(fleet)))

    @pytest.mark.parametrize("n", [1, 37, 5003])
    def test_generated_and_shuffled_populations(self, n):
        houses = generate_population(PopulationSpec(n=n), 3)
        shuffled = houses.take(np.random.default_rng(1).permutation(n))
        for population in (houses, shuffled, houses.take(slice(n // 2, None))):
            assert misaligned(population.columns) == []
            fleet = build_fleet(population, 5.0)
            assert self.fleet_and_workspace_misaligned(fleet) == ([], [])
            seed_fleet_states(fleet, 4)
            assert self.fleet_and_workspace_misaligned(fleet) == ([], [])
        assert shuffled.take([0]) == houses.take([int(shuffled.house_index[0])])

    def test_training_fleet(self, population, monkeypatch):
        advance, seen = engine._advance_slice, []

        def recorded(fleet, ws):
            if not seen:
                seen.append((misaligned(vars(fleet)), misaligned(vars(ws))))
            advance(fleet, ws)

        monkeypatch.setattr(engine, "_advance_slice", recorded)
        cfg = small_cfg(duration_s=1800, warmup_s=600, training_days=3)
        run_training_simulation(cfg, population,
                                [make_traces(cfg, seed=100 + d) for d in range(3)])
        assert seen == [([], [])]


class TestOneProcess:
    """A controlled run steps every house in the calling thread, even on two
    CPUs and at 5 003 houses."""

    N_HOUSES = 5003
    MODEL = flat_model(4000.0)

    @pytest.fixture(scope="class")
    def houses(self):
        return generate_population(PopulationSpec(n=self.N_HOUSES), 17)

    @pytest.fixture(scope="class")
    def cfg(self):
        return ScenarioConfig(n_acl=self.N_HOUSES, seed=17, duration_s=600, warmup_s=600)

    @pytest.fixture
    def threads(self, monkeypatch):
        """Every thread made while the test runs, on two CPUs."""
        made = []

        class Recorded(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        return made

    def test_traced_kernels_run_on_the_calling_thread(self, cfg, houses, threads,
                                                      monkeypatch):
        # the benchmark's tracer wraps these names and assumes one thread
        callers = {}

        def recorded(kernel, seen):
            def call(*args):
                seen.append(threading.get_ident())
                return kernel(*args)
            return call

        for name in ("_thermostat_slice", "_advance_slice", "fleet_soa"):
            monkeypatch.setattr(engine, name, recorded(getattr(engine, name),
                                                       callers.setdefault(name, [])))
        traces = generate_traces(cfg.seed, 2.0 * self.N_HOUSES, warmup_s=cfg.warmup_s,
                                 days=1)
        run_scenario(cfg, houses, traces, self.MODEL)
        steps = cfg.total_s // cfg.sim_step_s
        assert len(callers["_thermostat_slice"]) == len(callers["_advance_slice"]) == steps
        records, bids = cfg.total_s // cfg.record_cycle_s, cfg.total_s // cfg.control_cycle_s
        assert len(callers["fleet_soa"]) == records + bids
        assert {ident for seen in callers.values() for ident in seen} == {threading.get_ident()}
        assert threads == []

    def test_overflow_raises_under_errstate(self, cfg, houses, threads):
        # only the first ten houses have an aperture, and the sun overflows it
        aperture = np.zeros(self.N_HOUSES)
        aperture[:10] = houses.columns["solar_aperture"][:10]
        lit = Population(houses.house_index, {**houses.columns,
                                              "solar_aperture": aligned(aperture)})
        blazing = constant_traces(cfg.total_s, solar=1e308)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                run_scenario(cfg, lit, blazing, self.MODEL)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericAbortError):
                run_scenario(cfg, lit, blazing, self.MODEL)
        assert threads == []


class TestScheduling:
    def test_one_broadcast_per_cycle(self, population):
        cfg = small_cfg()
        traces = make_traces(cfg)
        result = run_scenario(cfg, population, traces, flat_model(20.0))
        expected_cycles = cfg.total_s // cfg.control_cycle_s - 1
        assert len(result.cycle_records) == expected_cycles
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
        assert result.cycle_records == []
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
        _, audit = run_audited(cfg, population, traces, flat_model(25.0))
        normal = [(bids, p_star, committed) for _, bids, p_star, committed in audit
                  if abs(p_star) <= 1.0]
        assert normal, "expected at least one non-sentinel clearing"
        for bids, p_star, committed in normal:
            running = 0.0
            for price, quantity in price_levels(rows_of(bids)):
                if price <= p_star:
                    break
                running += quantity
            assert running == committed

    def test_audited_bids_keep_bid_time_state(self, population):
        # a batch lives through the bid lead and, audited, the whole run;
        # its on states must stay those the tie line was metered with
        cfg = small_cfg(duration_s=4 * 3600)
        traces = make_traces(cfg)
        result, audit = run_audited(cfg, population, traces, flat_model(25.0))
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
        part = build_fleet(population.take(slice(k)), 5.0)
        seed_fleet_states(full, 9)
        seed_fleet_states(part, 9)
        stepped = [(full, Workspace(full)), (part, Workspace(part))]
        for step in range(100):
            t_out = 30.0 + 4.0 * np.sin(step / 10.0)
            for fleet, ws in stepped:
                ws.set_weather(fleet, t_out, 500.0)
                _thermostat_slice(fleet, ws)
                _advance_slice(fleet, ws)
            assert np.array_equal(part.t_air, full.t_air[:k])
            assert np.array_equal(part.t_mass, full.t_mass[:k])
            assert np.array_equal(part.on, full.on[:k])


class TestDegenerateAndFixedPoints:
    @pytest.mark.parametrize("controlled", [False, True])
    def test_empty_fleet_rejected(self, controlled):
        # every cycle clears against a bid from every device, so a run
        # needs at least one, as n_acl >= 1 says
        cfg = small_cfg(duration_s=3600, warmup_s=0)
        with pytest.raises(ValueError, match="empty population"):
            run_scenario(cfg, [], make_traces(cfg), flat_model(5.0), controlled=controlled)

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
    for h in house_rows(population):
        gains = h.ua_envelope * (t_out - h.t_set) + h.solar_aperture * solar
        total += min(1.0, max(0.0, gains / h.cooling_capacity)) * h.rated_power
    return total


def per_day_training_columns(cfg, houses, day_traces):
    """Training columns built from one free run per day over its enrolled prefix."""
    enroll_gen = substream(cfg.seed, ENROLLMENT_STREAM)
    columns = []
    for day, traces in enumerate(day_traces):
        fraction = float(enroll_gen.uniform(0.7, 1.0)) if day > 0 else 1.0
        duration_s = len(traces) * traces.cadence_s - cfg.warmup_s
        if duration_s <= 0:
            continue
        n_enrolled = max(1, int(round(fraction * len(houses))))
        run = run_scenario(dataclasses.replace(cfg, duration_s=duration_s),
                           houses.take(slice(n_enrolled)), traces, None, controlled=False)
        rows = run.metric_slice()
        p_ac = run.p_ac_actual[rows]
        columns.append((traces.t_out_c[rows], traces.solar_wm2[rows],
                        np.full(len(p_ac), run.total_rated_kw), p_ac))
    return [np.concatenate(c) for c in zip(*columns)]


class TestTrainingSimulation:
    def test_cold_weather_draws_nothing(self, population):
        cfg = small_cfg(duration_s=7200, warmup_s=1800)
        cold = constant_traces(cfg.total_s, t_out=18.0, solar=0.0)
        samples = run_training_simulation(cfg, population, [cold])
        assert all(p == 0.0 for p in samples.p_ac_free[20:])

    def test_free_power_bounded_by_rating(self, population):
        cfg = small_cfg(duration_s=7200, warmup_s=1800)
        traces = make_traces(cfg)
        samples = run_training_simulation(cfg, population, [traces])
        total = total_rated_power_kw(population)
        assert all(0.0 <= p <= total for p in samples.p_ac_free)

    def test_hotter_day_uses_at_least_as_much_energy(self, population):
        cfg = small_cfg(duration_s=6 * 3600, warmup_s=1800)
        mild = constant_traces(cfg.total_s, t_out=30.0, solar=300.0)
        hot = constant_traces(cfg.total_s, t_out=35.0, solar=700.0)
        e_mild = sum(run_training_simulation(cfg, population, [mild]).p_ac_free)
        e_hot = sum(run_training_simulation(cfg, population, [hot]).p_ac_free)
        assert e_hot >= e_mild

    def test_enrollment_variation_varies_rated_power(self, population):
        cfg = small_cfg(duration_s=3600, warmup_s=0, training_days=3)
        days = [make_traces(cfg, seed=100 + d) for d in range(3)]
        samples = run_training_simulation(cfg, population, days)
        rated_values = set(samples.total_rated)
        assert len(rated_values) == 3  # day 0 full fleet, later days drawn

    def test_too_short_day_keeps_later_draws(self, population):
        # a day no longer than the warm-up yields no samples but still
        # consumes its enrollment draw, so day 2 meters the same houses
        cfg = small_cfg(duration_s=1800, warmup_s=1800, training_days=3)
        days = [head(make_traces(cfg, seed=100 + d), cfg.total_s // 10)
                for d in range(3)]
        short = head(days[1], cfg.warmup_s // 10)
        full = run_training_simulation(cfg, population, days)
        skipped = run_training_simulation(cfg, population, [days[0], short, days[2]])
        per_day = len(full.p_ac_free) // 3
        assert len(set(full.total_rated)) == 3
        for got, column in zip(skipped, full):
            assert np.array_equal(got, np.concatenate([column[:per_day],
                                                       column[2 * per_day:]]))


    @pytest.mark.parametrize("case", ["equal days", "short day skipped",
                                      "two lengths", "one house"])
    def test_columns_match_per_day_runs_bit_for_bit(self, population, case):
        cfg = small_cfg(duration_s=3600, warmup_s=1200, training_days=3)
        rows = cfg.total_s // 10
        days = [head(make_traces(cfg, seed=100 + d), rows) for d in range(3)]
        houses = population
        if case == "short day skipped":
            days[1] = head(days[1], cfg.warmup_s // 10)
        elif case == "two lengths":
            days[1] = head(days[1], rows - 90)
        elif case == "one house":
            houses = population.take(slice(1))
        fused = run_training_simulation(cfg, houses, days)
        expected = per_day_training_columns(cfg, houses, days)
        assert len(fused.p_ac_free) > 0
        for got, want in zip(fused, expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRunDirRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32), controlled=st.booleans(),
           bias=st.sampled_from([0.0, -0.1, 0.25]), level=st.floats(0.0, 40.0),
           load=st.floats(0.0, 2000.0), wind=st.floats(0.0, 500.0))
    def test_load_reproduces_drawn_runs(self, population, n, seed, controlled, bias,
                                        level, load, wind):
        cfg = small_cfg(n_acl=n, seed=seed, duration_s=1200, warmup_s=600,
                        baseline_bias=bias)
        traces = constant_traces(cfg.total_s, load=load, wind=wind)
        result = run_scenario(cfg, population.take(slice(n)), traces, flat_model(level),
                              controlled=controlled)
        with tempfile.TemporaryDirectory() as tmp:
            write_run_dir(tmp, result)
            loaded = load_run_dir(tmp)
        for f in dataclasses.fields(RunResult):
            want, got = getattr(result, f.name), getattr(loaded, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want and type(got) is type(want), f.name

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


def hand_built_run(**overrides) -> RunResult:
    """Three records and two cycles holding every awkward value, no simulation."""
    big = 9007199254740993  # 2**53 + 1, not a float
    fields = dict(
        controlled=True, record_cycle_s=10, control_cycle_s=60, warmup_s=0,
        total_rated_kw=1240.1005859375,
        time_s=np.array([0, 10, big], dtype=np.int64),
        p_g=np.array([np.nan, -0.0, 1e-05]),
        p_g0_reference=np.array([5e-324, 1e300, -1.5]),
        p_g_lpf=np.array([np.nan, np.nan, 0.1]),
        p_ac_actual=np.array([0.0, 2.5, 1e22]),
        p_ac_target=np.array([np.inf, -np.inf, 123.456]),
        s_aggregate=np.array([-1.0, 0.0, 1.0]),
        n_on=np.array([0, 450, 2**62], dtype=np.int64),
        cycle_records=[
            CycleRecord(k=2**40, p_g_measured=1e-05, net_load=-0.0, p_base0=1e300,
                        p_base=0.5, p_g0=0.5, p_g_lpf=0.25, delta_p_ac=-0.25,
                        p_ac_target=0.25, s_aggregate=-0.0, p_star=np.nan,
                        committed_power=5e-324),
            CycleRecord(k=2, p_g_measured=np.nan, net_load=1.5, p_base0=-np.inf,
                        p_base=3.0, p_g0=4.5, p_g_lpf=np.inf, delta_p_ac=np.inf,
                        p_ac_target=np.inf, s_aggregate=1.0, p_star=-2.0,
                        committed_power=0.0)],
        comfort_violation_acl_min=0.0, total_acl_min=648000.0)
    fields.update(overrides)
    return RunResult(**fields)


class TestRunDirFormat:
    FILES = {
        "results.csv": (
            "time_s,p_g,p_g0_reference,p_g_lpf,p_ac_actual,p_ac_target,s_aggregate,n_on\n"
            "0,nan,5e-324,nan,0.0,inf,-1.0,0\n"
            "10,-0.0,1e+300,nan,2.5,-inf,0.0,450\n"
            "9007199254740993,1e-05,-1.5,0.1,1e+22,123.456,1.0,4611686018427387904\n"),
        "cycles.csv": (
            "k,p_g_measured,net_load,p_base0,p_base,p_g0,p_g_lpf,p_ac_target,"
            "s_aggregate,p_star,committed_power\n"
            "1099511627776,1e-05,-0.0,1e+300,0.5,0.5,0.25,0.25,-0.0,nan,5e-324\n"
            "2,nan,1.5,-inf,3.0,4.5,inf,inf,1.0,-2.0,0.0\n"),
        "summary.txt": (
            "controlled = true\n"
            "record_cycle_s = 10\n"
            "control_cycle_s = 60\n"
            "warmup_s = 0\n"
            "total_rated_kw = 1240.1005859375\n"
            "comfort_violation_acl_min = 0.0\n"
            "total_acl_min = 648000.0\n"),
    }

    def test_exact_text(self, tmp_path):
        write_run_dir(tmp_path / "run", hand_built_run())
        for name, text in self.FILES.items():
            assert (tmp_path / "run" / name).read_text() == text

    def test_load_then_write_keeps_bytes(self, tmp_path):
        # p_g must be finite to load; the NaN and infinities stay in the
        # series that hold them by design
        write_run_dir(tmp_path / "a", hand_built_run(p_g=np.array([1e300, -0.0, 1e-05])))
        write_run_dir(tmp_path / "b", load_run_dir(tmp_path / "a"))
        for name in self.FILES:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("name", ["p_g", "p_ac_actual", "s_aggregate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_is_refused(self, tmp_path, name, value):
        finite = np.array([1e300, -0.0, 1e-05])
        series = finite.copy()
        series[1] = value
        write_run_dir(tmp_path / "run", hand_built_run(**{"p_g": finite, name: series}))
        with pytest.raises(ValueError, match=f"{name} that is not finite"):
            load_run_dir(tmp_path / "run")

    def test_numpy_scalar_is_refused(self, tmp_path):
        # under NumPy 2 its repr is "np.float64(0.0)", which no reader parses
        with pytest.raises(TypeError):
            write_run_dir(tmp_path / "run",
                          hand_built_run(comfort_violation_acl_min=np.float64(0.0)))


class TestGoldenHashes:
    """Pinned bytes of a small free run, training set and controlled run.

    Free runs and training make no BLAS call, so these bytes hold on any
    CPU.  The controlled run uses a constant-only baseline model: the
    prediction's `np.dot` then adds exact zeros, so its bytes hold on any
    BLAS kernel too.  A fitted model is left out until the fit and the
    prediction stop going through BLAS.
    """

    @staticmethod
    def small_scenario():
        cfg = ScenarioConfig(n_acl=30, seed=11, duration_s=2 * 3600, warmup_s=1800)
        houses = generate_population(cfg.population_spec(), cfg.seed, cfg.thermal,
                                     cfg.epsilon_margin_c)
        return cfg, houses, estimate_free_peak_kw(houses, *peak_weather())

    @staticmethod
    def run_digests(run_dir):
        return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in ("results.csv", "cycles.csv", "summary.txt")}

    def test_controlled_run_bytes(self, tmp_path):
        cfg, houses, free_peak = self.small_scenario()
        traces = generate_traces(cfg.seed, free_peak, warmup_s=cfg.warmup_s)
        model = BaselineModel((0.5 * free_peak, 0, 0, 0, 0, 0, 0, 0))
        result = run_scenario(cfg, houses, traces, model)
        normal = sum(abs(rec.p_star) <= 1.0 for rec in result.cycle_records)
        assert normal / len(result.cycle_records) > 0.9  # the market really clears
        write_run_dir(tmp_path, result)
        assert self.run_digests(tmp_path) == {
            "results.csv": "537fc68d2252227a1dda5efe34056e7afd4a05d4a063e2c616f1862c2d91b799",
            "cycles.csv": "9ba41a5c5d275f36e4b53381d4edc26029100622ee409fc6a60163f74688c0a6",
            "summary.txt": "d8ee352c6d6ff56d4a843887babd9ccf189a7cae5bcdf04ac722d42edaea98a9"}

    def test_training_columns_and_free_run_bytes(self, tmp_path):
        cfg, houses, free_peak = self.small_scenario()
        days = [head(d, (cfg.warmup_s + 4 * 3600) // 10)
                for d in generate_training_traces(cfg.seed, free_peak, 3,
                                                  warmup_s=cfg.warmup_s)]
        samples = run_training_simulation(cfg, houses, days)
        # columns, or the rows of a sample list, so older commits can be checked too
        columns = samples if isinstance(samples, tuple) else \
            list(zip(*(dataclasses.astuple(s) for s in samples)))
        table = np.column_stack(columns).astype(float)
        assert table.shape == (4320, 4)
        assert hashlib.sha256(table.tobytes()).hexdigest() == \
            "122946c4ca6e7443f681bbfe10f975e639a71cf6cb2d055656eb92672ce187ff"

        traces = generate_traces(cfg.seed, free_peak, warmup_s=cfg.warmup_s)
        write_run_dir(tmp_path, run_scenario(cfg, houses, traces, None, controlled=False))
        assert self.run_digests(tmp_path) == {
            "results.csv": "6cbf2df74e03128af9045fd6652a4487560c9e85c777148040602247825fd944",
            "cycles.csv": "4ba663fa54a353befa747e08159761884e7d748246efe5207ab21e3bb4d9ded3",
            "summary.txt": "b2d425c04e6ee99841292318ac122ec433de958cbb2e0efa39ff1e218530b76c"}

    @pytest.mark.parametrize("controlled, digest", [
        (True, "2be1d4c6179f5533361edd05cb8407aad550a36fb5a1c69bdb23881dea910ce2"),
        (False, "db23c0dbc3a3e96a5cc23bb0a8b6f01fed83514eaff4f94c23a443a9c72c45ca"),
    ], ids=["controlled", "free"])
    def test_cool_night_summary_bytes(self, tmp_path, controlled, digest):
        # 8 degC cooler, houses drift below their comfort band with the
        # device off, so the comfort minutes are not zero
        cfg, houses, free_peak = self.small_scenario()
        traces = generate_traces(cfg.seed, free_peak, warmup_s=cfg.warmup_s)
        traces = dataclasses.replace(traces, t_out_c=traces.t_out_c - 8.0)
        model = BaselineModel((0.5 * free_peak, 0, 0, 0, 0, 0, 0, 0)) if controlled else None
        result = run_scenario(cfg, houses, traces, model, controlled=controlled)
        assert 0 < result.comfort_violation_acl_min < result.total_acl_min
        write_run_dir(tmp_path, result)
        assert self.run_digests(tmp_path)["summary.txt"] == digest


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
