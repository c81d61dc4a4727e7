"""Local controller: its checks, temperature state, bidding, price response,
hysteresis.

Every rule runs on the engine's fleet kernels, through a fleet of houses
that share one controller configuration.
"""

import dataclasses
import math

import numpy as np
import pytest

from tiesmooth.agents import controller_faults, default_epsilon
from tiesmooth.baseline import BaselineModel
from tiesmooth.engine import (Workspace, _respond_to_price, _thermostat_slice, build_fleet,
                              fleet_soa)
from tiesmooth.market import BidBatch
from tiesmooth.population import generate_population
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import generate_traces

from handmade import TINY, case_id, controller, population_of, verdicts
from test_engine import ETP, run_audited, thresholds_fresh


@pytest.fixture
def cfg():
    return controller(t_set=26.0, deadband=0.3, t_high=2.5, t_low=2.5,
                      rated_power=2.5, epsilon=default_epsilon(0.3))


def fleet_of(cfg, t_air, on=False, setpoint=None):
    """Houses of controller `cfg`, one per air temperature, as one fleet."""
    t_air = np.atleast_1d(np.asarray(t_air, dtype=float))
    fleet = build_fleet(population_of([ETP] * len(t_air), [cfg] * len(t_air)), 5.0)
    fleet.t_air = t_air.copy()
    fleet.on = np.full(fleet.n, on)
    if setpoint is not None:
        fleet.active_setpoint = np.full(fleet.n, float(setpoint))
    return fleet, Workspace(fleet)


def soa(cfg, t_air):
    fleet, ws = fleet_of(cfg, t_air)
    values = fleet_soa(fleet, ws).tolist()
    return values[0] if np.ndim(t_air) == 0 else values


def respond(cfg, bid_price, p_star):
    """The setpoint a device that bid `bid_price` takes for the broadcast p_star."""
    fleet, ws = fleet_of(cfg, cfg.t_set)
    fleet.soa_bid = np.array([bid_price])
    _respond_to_price(fleet, ws, p_star)
    assert thresholds_fresh(fleet, ws)
    return float(fleet.active_setpoint[0])


def thermostat(cfg, t_air, on, setpoint):
    fleet, ws = fleet_of(cfg, t_air, on, setpoint)
    _thermostat_slice(fleet, ws)
    return bool(fleet.on[0])


class TestComputeSoa:
    def test_zero_at_setpoint(self, cfg):
        assert soa(cfg, 26.0) == 0.0

    def test_one_at_upper_limit(self, cfg):
        assert soa(cfg, cfg.t_max) == 1.0

    def test_direct_substitution(self):
        cfg = controller(t_set=26.0, deadband=0.3, t_high=2.5, t_low=2.5,
                         rated_power=2.5, epsilon=0.2)
        assert soa(cfg, 24.75) == pytest.approx(-0.5)

    def test_clamped_outside_limits(self, cfg):
        assert soa(cfg, [cfg.t_max + 3.0, cfg.t_min - 3.0]) == [1.0, -1.0]

    def test_monotone_and_continuous_at_setpoint(self, cfg):
        temps = [cfg.t_min - 1 + 0.05 * i for i in range(140)]
        values = soa(cfg, temps)
        assert all(b >= a for a, b in zip(values, values[1:]))
        eps = 1e-9
        above, below = soa(cfg, [26.0 + eps, 26.0 - eps])
        assert abs(above - below) < 1e-8

    def test_asymmetric_bands(self):
        cfg = controller(t_set=26.0, deadband=0.3, t_high=2.0, t_low=3.0,
                         rated_power=2.5, epsilon=0.2)
        assert soa(cfg, [27.0, 24.5]) == pytest.approx([0.5, -0.5])

    def test_same_bits_as_selecting_the_side(self):
        # the two clipped halves give the bits of dividing by the side's band
        cfg = controller(t_set=26.0, deadband=0.3, t_high=2.0, t_low=3.0,
                         rated_power=2.5, epsilon=0.2)
        edges = np.array([cfg.t_set, cfg.t_max, cfg.t_min])
        temps = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf), [np.nan, np.inf, -np.inf],
                                np.random.default_rng(3).uniform(20.0, 32.0, 200)])
        dev = temps - cfg.t_set
        selected = np.minimum(np.maximum(
            np.where(dev >= 0.0, dev / cfg.t_high, dev / cfg.t_low), -1.0), 1.0)
        fleet, ws = fleet_of(cfg, temps)
        assert fleet_soa(fleet, ws).tobytes() == selected.tobytes()


@pytest.fixture(scope="module")
def audited_run():
    """The houses of a short controlled run, every batch it bid, and a
    function that repeats the run and returns its batches."""
    cfg = ScenarioConfig(n_acl=12, seed=9, duration_s=3600, warmup_s=0)
    houses = generate_population(PopulationSpec(n=12), 9)
    traces = generate_traces(cfg.seed, 30.0, warmup_s=cfg.warmup_s)
    model = BaselineModel(coefficients=(20.0, 0, 0, 0, 0, 0, 0, 0))

    def bid_batches():
        _, audit = run_audited(cfg, houses, traces, model)
        return [bids for _, bids, _, _ in audit]
    return houses, bid_batches(), bid_batches


class TestMakeBid:
    """The message each device sends, read off the batches a run clears."""

    def test_field_copy(self, audited_run):
        houses, batches, _ = audited_run
        rated = houses.columns["rated_power"].tolist()
        assert batches
        for batch in batches:
            assert batch.quantity.tolist() == rated

    def test_off_device(self, audited_run):
        # an off device still offers its full rating and says it is off
        houses, batches, _ = audited_run
        rated = houses.columns["rated_power"]
        on_states = np.array([batch.on_state for batch in batches])
        assert on_states.any() and not on_states.all()
        for batch in batches:
            assert np.array_equal(batch.quantity[~batch.on_state], rated[~batch.on_state])

    def test_identical_state_identical_bid(self, audited_run):
        _, batches, rerun = audited_run
        for a, b in zip(batches, rerun(), strict=True):
            for name in ("price", "quantity", "on_state"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_privacy_boundary(self, audited_run):
        # the message carries exactly the three scalars and no identity; no
        # comfort preference travels with it
        _, batches, _ = audited_run
        fields = {"price", "quantity", "on_state"}
        assert {f.name for f in dataclasses.fields(BidBatch)} == fields
        for batch in batches:
            assert set(vars(batch)) == fields
            assert np.all((batch.price >= -1.0) & (batch.price <= 1.0))


class TestApplyClearingPrice:
    def test_outbid_drifts_off(self, cfg):
        # tie goes to the off branch
        assert respond(cfg, 0.5, 0.5) == cfg.t_max - cfg.epsilon

    def test_winning_bid_drives_on(self, cfg):
        assert respond(cfg, 0.5, 0.3) == cfg.t_min + cfg.epsilon

    def test_all_off_sentinel(self, cfg):
        for bid_price in (-1.0, 0.0, 1.0):
            assert respond(cfg, bid_price, 2.0) == cfg.t_max - cfg.epsilon

    def test_all_on_sentinel(self, cfg):
        for bid_price in (-1.0, 0.0, 1.0):
            assert respond(cfg, bid_price, -2.0) == cfg.t_min + cfg.epsilon

    def test_override_band_inside_limits(self, cfg):
        # after any broadcast the steady hysteresis band stays inside the
        # comfort range (epsilon invariant)
        for p_star in (-2.0, -0.4, 0.0, 0.4, 2.0):
            setpoint = respond(cfg, 0.1, p_star)
            assert setpoint - cfg.deadband / 2 >= cfg.t_min
            assert setpoint + cfg.deadband / 2 <= cfg.t_max


class TestThermostat:
    def test_holds_inside_band(self, cfg):
        for on in (False, True):
            assert thermostat(cfg, 26.0, on, 26.0) is on

    def test_guard_dominates_override(self, cfg):
        assert thermostat(cfg, cfg.t_max, False, cfg.t_max - cfg.epsilon) is True
        assert thermostat(cfg, cfg.t_min, True, cfg.t_min + cfg.epsilon) is False

    def test_square_wave_transition_sequence(self, cfg):
        # hand-enumerated hysteresis transitions for a temperature sweep
        half = cfg.deadband / 2.0
        sweep = [26.0, 26.0 + half + 0.01, 26.0, 26.0 - half - 0.01, 26.0,
                 26.0 + half + 0.01, 26.0 + half + 0.01, 26.0 - half - 0.01]
        expected = [False, True, True, False, False, True, True, False]
        fleet, ws = fleet_of(cfg, 26.0)
        seen = []
        for t_air in sweep:
            fleet.t_air[0] = t_air
            _thermostat_slice(fleet, ws)
            seen.append(bool(fleet.on[0]))
        assert seen == expected


SETTINGS = dict(t_set=26.0, deadband=0.3, t_high=2.5, t_low=2.5, rated_power=2.5, epsilon=0.2)


@pytest.mark.parametrize("overrides, fault", [
    ({}, False),
    # limits and rating positive; NaN passes the rating's sign check
    *[({name: value}, fault) for name in ("t_high", "t_low", "rated_power")
      for value, fault in ((-TINY, True), (0.0, True))],
    ({"rated_power": TINY}, False), ({"rated_power": math.nan}, False),
    # a NaN limit leaves no band the deadband fits
    ({"t_high": math.nan}, True), ({"t_low": math.nan}, True),
    # deadband in (0, min(t_high, t_low))
    *[({"deadband": value}, fault) for value, fault in (
        (-TINY, True), (0.0, True), (TINY, False), (math.nextafter(2.5, 0.0), False),
        (2.5, True), (math.nextafter(2.5, 3.0), True), (2.6, True), (math.nan, True))],
    ({"t_low": 2.0, "deadband": math.nextafter(2.0, 0.0)}, False),
    ({"t_low": 2.0, "deadband": 2.0}, True),
    # epsilon > 0, and epsilon + deadband/2 inside the narrower band
    *[({"epsilon": value}, fault) for value, fault in (
        (-TINY, True), (0.0, True), (TINY, False), (2.4, True), (math.nan, True))],
    *[({"deadband": 0.25, "epsilon": value}, fault) for value, fault in (
        (math.nextafter(2.375, 0.0), False), (2.375, False),
        (math.nextafter(2.375, 3.0), True))],
    # the band a device drifts off in must start below t_max = 28.5, whose
    # ulp is 2^-48: a half-ulp half-deadband rounds back onto it
    ({"deadband": 2.0 ** -47, "epsilon": TINY}, False),
    ({"deadband": 2.0 ** -48, "epsilon": TINY}, True),
], ids=case_id)
def test_controller_faults(overrides, fault):
    assert verdicts(controller_faults, {**SETTINGS, **overrides}) == (fault, [fault])
