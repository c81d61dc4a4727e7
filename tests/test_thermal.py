"""House thermal model: derivation rules and their checks, exact stepping,
equilibria.

Stepping runs on the engine's fleet stepper, with every house of a case
in one fleet and the compressors held as each case sets them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiesmooth.engine import Workspace, _advance_slice, build_fleet
from tiesmooth.rng import substream
from tiesmooth.scenario import ScenarioConfig
from tiesmooth.thermal import (CEILING_HEIGHT, DOOR_AREA, discretize, etp_faults,
                               geometry_faults)

from handmade import (TINY, case_id, controller, etp, etp_of, geometry, population_of,
                      verdicts)
from test_engine import ETP

# any valid controller: the thermal stepper never reads it
COMFORT = controller(t_set=26.0, deadband=0.3, t_high=2.5, t_low=2.5,
                     rated_power=2.5, epsilon=0.2)
NOMINAL_GEOMETRY = dict(floor_area=132.0, air_change_rate=0.5, window_wall_ratio=0.15,
                        shgc=0.36, eer=3.5, r_roof=5.28, r_wall=2.99, r_floor=3.35,
                        r_window=0.38, r_door=0.88)


def nominal_geometry(**overrides):
    return geometry(**{**NOMINAL_GEOMETRY, **overrides})


def random_table_geometry(gen):
    """One draw from the population distribution tables."""
    return geometry(
        floor_area=gen.uniform(88, 176),
        air_change_rate=gen.uniform(0.32, 0.68),
        window_wall_ratio=gen.uniform(0.12, 0.18),
        shgc=gen.uniform(0.22, 0.5),
        eer=gen.uniform(3, 4),
        r_roof=gen.uniform(3.18, 7.38),
        r_wall=gen.uniform(1.94, 4.04),
        r_floor=gen.uniform(2.30, 4.40),
        r_window=gen.uniform(0.29, 0.47),
        r_door=gen.uniform(0.67, 1.09),
    )


def equilibrium_temperature(p, t_out: float, solar: float, cooling_on: bool) -> float:
    """Steady-state indoor air temperature of thermal parameters `p` for
    fixed inputs; ZeroDivisionError where ua_envelope = 0.

    At equilibrium the mass node matches the air node, so the air
    balance reduces to ua * (t_out - t_air) + q_net = 0.
    """
    q_cool = p.cooling_capacity if cooling_on else 0.0
    return t_out + (p.solar_aperture * solar - q_cool) / p.ua_envelope


def scalar_discretize(ua, h_mass, c_air, c_mass, dt):
    """One house's propagator and the first column of its input integral,
    evaluated on Python floats: the reference whose bits the array
    `discretize` must give for every house."""
    a11 = -(ua + h_mass) / c_air
    a12 = h_mass / c_air
    a21 = h_mass / c_mass
    a22 = -h_mass / c_mass
    tr = a11 + a22
    disc = math.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a21)
    lam1, lam2 = 0.5 * (tr + disc), 0.5 * (tr - disc)
    v1, v2 = lam1 - a22, lam2 - a22
    det = a21 * (v1 - v2)

    def phi(lam):
        u = lam * dt
        return dt if u == 0.0 else math.expm1(u) / lam

    def transform(d1, d2):
        return (((v1 * d1 * a21 - v2 * d2 * a21) / det,
                 (-v1 * d1 * v2 + v2 * d2 * v1) / det),
                ((a21 * d1 * a21 - a21 * d2 * a21) / det,
                 (-a21 * d1 * v2 + a21 * d2 * v1) / det))

    (m11, _), (m21, _) = transform(phi(lam1), phi(lam2))
    return transform(math.exp(lam1 * dt), math.exp(lam2 * dt)), (m11, m21)


def thermal_fleet(params, dt, t_air, t_mass=None):
    """Houses of these parameters as one fleet stepping dt seconds, from the
    given air and mass temperatures (scalars or one per house)."""
    fleet = build_fleet(population_of(params, [COMFORT] * len(params)), dt)
    fleet.t_air = np.broadcast_to(np.asarray(t_air, dtype=float), (fleet.n,)).copy()
    fleet.t_mass = np.broadcast_to(np.asarray(t_air if t_mass is None else t_mass,
                                              dtype=float), (fleet.n,)).copy()
    return fleet, Workspace(fleet)


def advance(fleet, ws, t_out, solar, cooling_on, steps=1):
    """`steps` steps under fixed weather with the compressors held as given."""
    fleet.on[:] = cooling_on
    ws.set_weather(fleet, t_out, solar)
    for _ in range(steps):
        _advance_slice(fleet, ws)


class TestDeriveEtpParams:
    def test_nominal_house_frozen_values(self):
        # hand evaluation of the stated mapping: square footprint,
        # gross wall 4*sqrt(132)*2.5, glazing and door removed from the
        # conducting wall, conduction + infiltration UA
        p = etp_of(nominal_geometry())
        assert p.ua_envelope == pytest.approx(199.29501936731697, rel=1e-12)
        assert p.solar_aperture == pytest.approx(6.20412765826107, rel=1e-12)
        assert p.c_air == pytest.approx(1193940.0, rel=1e-12)
        assert p.c_mass == pytest.approx(397980.0, rel=1e-12)
        assert p.h_mass == pytest.approx(3.0 * 199.29501936731697, rel=1e-12)
        assert p.cooling_capacity == pytest.approx(9561.29506672166, rel=1e-10)
        assert p.rated_electrical_power == pytest.approx(p.cooling_capacity / 3.5,
                                                         rel=1e-12)

    def test_doubling_resistances_halves_conduction(self):
        g1 = nominal_geometry()
        g2 = nominal_geometry(r_roof=2 * 5.28, r_wall=2 * 2.99, r_floor=2 * 3.35,
                              r_window=2 * 0.38, r_door=2 * 0.88)
        infiltration = 0.5 * 132.0 * 2.5 * 1.2 * 1005.0 / 3600.0
        cond1 = etp_of(g1).ua_envelope - infiltration
        cond2 = etp_of(g2).ua_envelope - infiltration
        assert cond2 == pytest.approx(cond1 / 2.0, rel=1e-12)

    def test_zero_air_change_leaves_pure_conduction(self):
        tiny = 1e-12  # air_change_rate must stay positive per the invariants
        p = etp_of(nominal_geometry(air_change_rate=tiny))
        g = nominal_geometry()
        wall = 4.0 * math.sqrt(g.floor_area) * CEILING_HEIGHT
        window = g.window_wall_ratio * wall
        net_wall = wall - window - DOOR_AREA
        conduction = (g.floor_area / g.r_roof + g.floor_area / g.r_floor
                      + net_wall / g.r_wall + window / g.r_window
                      + DOOR_AREA / g.r_door)
        assert p.ua_envelope == pytest.approx(conduction, rel=1e-9)

    def test_monotone_in_areas_and_resistances(self):
        base = etp_of(nominal_geometry()).ua_envelope
        assert etp_of(nominal_geometry(floor_area=150)).ua_envelope > base
        assert etp_of(nominal_geometry(air_change_rate=0.7)).ua_envelope > base
        for field in ("r_roof", "r_wall", "r_floor", "r_window", "r_door"):
            bigger = etp_of(nominal_geometry(**{field: NOMINAL_GEOMETRY[field] * 1.5}))
            assert bigger.ua_envelope < base


POSITIVE_GEOMETRY = ("floor_area", "air_change_rate", "shgc", "eer", "r_roof", "r_wall",
                     "r_floor", "r_window", "r_door")
ONE_BELOW, ONE_ABOVE = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)


class TestFaults:
    """Each check at its boundary, one ulp either side and NaN, with the
    verdict on Python floats and on arrays alike."""

    @pytest.mark.parametrize("overrides, fault", [
        # the sign checks, which NaN passes
        *[({name: value}, fault) for name in POSITIVE_GEOMETRY
          for value, fault in ((-TINY, True), (0.0, True), (TINY, False), (math.nan, False))],
        ({"floor_area": -1.0}, True),
        # window_wall_ratio in (0, 1), which NaN fails
        *[({"window_wall_ratio": value}, fault) for value, fault in (
            (-TINY, True), (0.0, True), (TINY, False), (ONE_BELOW, False), (1.0, True),
            (ONE_ABOVE, True), (1.2, True), (math.nan, True))],
        # shgc at most 1
        ({"shgc": ONE_BELOW}, False), ({"shgc": 1.0}, False), ({"shgc": ONE_ABOVE}, True),
    ], ids=case_id)
    def test_geometry(self, overrides, fault):
        assert verdicts(geometry_faults, {**NOMINAL_GEOMETRY, **overrides}) == (fault, [fault])

    @pytest.mark.parametrize("overrides, fault", [
        *[({name: value}, fault) for name in ("c_air", "c_mass", "h_mass", "solar_aperture",
                                              "cooling_capacity", "rated_electrical_power")
          for value, fault in ((-TINY, True), (0.0, True), (TINY, False), (math.nan, False))],
        # a closed house (ua_envelope = 0) is admitted
        *[({"ua_envelope": value}, fault) for value, fault in (
            (-1.0, True), (-TINY, True), (0.0, False), (TINY, False), (math.nan, False))],
    ], ids=case_id)
    def test_thermal_parameters(self, overrides, fault):
        assert verdicts(etp_faults, {**vars(ETP), **overrides}) == (fault, [fault])


class TestEtpStep:
    def test_converges_to_outdoor_without_gains(self):
        p = etp_of(nominal_geometry())
        fleet, ws = thermal_fleet([p], 60.0, 20.0)
        advance(fleet, ws, 30.0, 0.0, False, steps=20000)
        assert fleet.t_air[0] == pytest.approx(30.0, abs=1e-9)
        assert fleet.t_mass[0] == pytest.approx(30.0, abs=1e-9)

    def test_solar_steady_state_matches_linear_solve(self):
        # independent oracle: solve the 2x2 steady state directly
        p = etp_of(nominal_geometry())
        t_out, solar = 32.0, 600.0
        a = np.array([[-(p.ua_envelope + p.h_mass), p.h_mass],
                      [p.h_mass, -p.h_mass]])
        b = np.array([-(p.ua_envelope * t_out + p.solar_aperture * solar), 0.0])
        fixed = np.linalg.solve(a, b)
        fleet, ws = thermal_fleet([p], 60.0, 25.0)
        advance(fleet, ws, t_out, solar, False, steps=30000)
        assert fleet.t_air[0] == pytest.approx(fixed[0], abs=1e-6)
        assert fleet.t_mass[0] == pytest.approx(fleet.t_air[0], abs=1e-6)

    def test_matches_scipy_expm_oracle(self):
        sla = pytest.importorskip("scipy.linalg")
        gen = substream(2024, 99)
        for _ in range(50):
            g = random_table_geometry(gen)
            p = etp_of(g)
            dt = float(gen.uniform(1.0, 60.0))
            ad, m = discretize(
                *(np.array([v]) for v in (p.ua_envelope, p.h_mass, p.c_air, p.c_mass)), dt)
            ad, m = np.array(ad)[:, :, 0], np.array(m)[:, 0]
            a = np.array([[-(p.ua_envelope + p.h_mass) / p.c_air, p.h_mass / p.c_air],
                          [p.h_mass / p.c_mass, -p.h_mass / p.c_mass]])
            expm = sla.expm(a * dt)
            assert np.allclose(ad, expm, rtol=0, atol=1e-12)
            integral = np.linalg.solve(a, expm - np.eye(2))
            # the air node's input column: heat enters the air node only
            assert np.allclose(m, integral[:, 0], rtol=1e-9, atol=1e-9)

    def test_array_discretization_has_the_scalar_bits(self):
        gen = substream(5, 17)
        n = 20000
        columns = [gen.uniform(lo, hi, n) for lo, hi in
                   ((0.0, 600.0), (100.0, 3000.0), (2e5, 2e6), (1e5, 3e6))]
        columns[0][:20] = 0.0  # closed houses: one eigenvalue is zero
        # houses 29722, 40224 and 48921 of the n = 50 000, seed 42 fleet,
        # whose matrices change if (a11 - a22) ** 2 becomes a product
        for i, house in enumerate([
                (183.92432313300498, 551.772969399015, 966363.2488827682, 322121.08296092274),
                (173.87038262960775, 521.6111478888232, 1060725.8954404772, 353575.2984801591),
                (214.42233256341402, 643.2669976902421, 1231619.5924574311,
                 410539.86415247706)]):
            for column, value in zip(columns, house):
                column[20 + i] = value
        for dt in (5.0, 37.5):
            ad, m = discretize(*columns, dt)
            got = np.concatenate([np.array(ad).reshape(4, n), np.array(m)])
            want = np.array([[*ad_s[0], *ad_s[1], *m_s] for ad_s, m_s in (
                scalar_discretize(*house, dt) for house in zip(*(c.tolist() for c in columns)))])
            assert got.T.tobytes() == want.tobytes()

    def test_dt_bounds_enforced(self):
        # a run's step is bounded to (0, 60] s where the scenario is built
        for step in (0, -5):
            with pytest.raises(ValueError, match="sim_step_s must be in"):
                ScenarioConfig(sim_step_s=step)
        with pytest.raises(ValueError, match="sim_step_s must be in"):
            ScenarioConfig(sim_step_s=120, record_cycle_s=120, control_cycle_s=240,
                           bid_lead_s=120)
        ScenarioConfig(sim_step_s=60, record_cycle_s=60, control_cycle_s=120,
                       bid_lead_s=60)

    @settings(max_examples=40, deadline=None)
    @given(c_air=st.floats(1e5, 5e6), c_mass=st.floats(1e5, 5e7),
           h=st.floats(10.0, 5e3))
    def test_closed_system_conserves_energy(self, c_air, c_mass, h):
        p = etp(c_air=c_air, c_mass=c_mass, ua_envelope=0.0, h_mass=h,
                solar_aperture=1.0, cooling_capacity=1000.0, rated_electrical_power=300.0)
        fleet, ws = thermal_fleet([p], 30.0, 30.0, 18.0)
        energy0 = c_air * 30.0 + c_mass * 18.0
        advance(fleet, ws, 50.0, 0.0, False, steps=2000)  # t_out irrelevant: ua = 0
        t_air, t_mass = float(fleet.t_air[0]), float(fleet.t_mass[0])
        energy = c_air * t_air + c_mass * t_mass
        assert energy == pytest.approx(energy0, rel=1e-9)
        # node gap decays at the nonzero eigenvalue rate
        lam = -h * (1.0 / c_air + 1.0 / c_mass)
        bound = abs(30.0 - 18.0) * math.exp(lam * 2000 * 30.0) + 1e-9
        assert abs(t_air - t_mass) <= bound * (1.0 + 1e-6)

    def test_eigenvalues_negative_for_positive_parameters(self):
        gen = substream(7, 11)
        for _ in range(200):
            p = etp_of(random_table_geometry(gen))
            a11 = -(p.ua_envelope + p.h_mass) / p.c_air
            a22 = -p.h_mass / p.c_mass
            tr = a11 + a22
            disc = math.sqrt((a11 - a22) ** 2
                             + 4.0 * (p.h_mass ** 2) / (p.c_air * p.c_mass))
            assert 0.5 * (tr + disc) < 0
            assert 0.5 * (tr - disc) < 0

    def test_dt_halving_changes_trajectory_little(self):
        # varying weather resolved at two step sizes over one hour
        gen = substream(3, 5)
        params = [etp_of(random_table_geometry(gen)) for _ in range(20)]
        coarse = thermal_fleet(params, 60.0, 26.0)
        fine = thermal_fleet(params, 30.0, 26.0)
        for i in range(60):
            t_out, solar = 30 + 5 * math.sin(i / 5.0), max(0.0, 500 * math.cos(i / 7.0))
            cooling = i % 3 == 0
            advance(*coarse, t_out, solar, cooling)
            advance(*fine, t_out, solar, cooling, steps=2)
        assert np.all(np.abs(coarse[0].t_air - fine[0].t_air) < 0.01)


class TestEquilibrium:
    def test_no_gains_equilibrium_is_outdoor(self):
        p = etp_of(nominal_geometry())
        assert equilibrium_temperature(p, 28.0, 0.0, False) == 28.0

    def test_constructed_inverse(self):
        # capacity chosen so the cooled steady state lands on 26
        ua = 200.0
        p = etp(c_air=1e6, c_mass=4e5, ua_envelope=ua, h_mass=600.0, solar_aperture=5.0,
                cooling_capacity=ua * (35.0 - 26.0), rated_electrical_power=500.0)
        t = equilibrium_temperature(p, 35.0, 0.0, cooling_on=True)
        assert t == pytest.approx(26.0, abs=1e-12)

    def test_singular_when_no_envelope(self):
        p = etp(c_air=1e6, c_mass=4e5, ua_envelope=0.0, h_mass=600.0, solar_aperture=5.0,
                cooling_capacity=1000.0, rated_electrical_power=300.0)
        with pytest.raises(ZeroDivisionError):
            equilibrium_temperature(p, 30.0, 0.0, False)

    def test_long_horizon_integration_agrees(self):
        gen = substream(11, 13)
        cases = [(etp_of(random_table_geometry(gen)), float(gen.uniform(26, 38)),
                  float(gen.uniform(0, 900)), bool(gen.integers(0, 2))) for _ in range(30)]
        params, t_out, solar, cooling = (list(column) for column in zip(*cases))
        targets = [equilibrium_temperature(*case) for case in cases]
        fleet, ws = thermal_fleet(params, 60.0, 27.0)
        advance(fleet, ws, np.array(t_out), np.array(solar), cooling, steps=4000)
        assert np.all(np.abs(fleet.t_air - targets) < 1e-4)

    def test_more_capacity_never_raises_steady_state(self):
        p = etp_of(nominal_geometry())
        temps = []
        for scale in (1.0, 1.2, 1.5, 2.0):
            bigger = etp(**{**vars(p), "cooling_capacity": p.cooling_capacity * scale})
            temps.append(equilibrium_temperature(bigger, 34.0, 700.0, True))
        assert all(t2 < t1 for t1, t2 in zip(temps, temps[1:]))
