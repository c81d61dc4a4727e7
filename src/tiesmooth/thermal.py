"""Two-node lumped-parameter thermal model of an air-conditioned house.

The house is an air node coupled to a building-mass node:

    c_air  * dT_air/dt  = ua_envelope * (t_out - T_air)
                          + h_mass * (T_mass - T_air)
                          + solar_aperture * solar
                          - q_cool                      (when cooling runs)
    c_mass * dT_mass/dt = h_mass * (T_air - T_mass)

All solar gain lands on the air node; the mass node exchanges heat only
with the air.  The system is linear, so each step is advanced with the
exact matrix exponential of the 2x2 state matrix (inputs held constant
over the step).  That keeps the integrator unconditionally stable and
makes trajectories independent of step size whenever the inputs are.
`discretize` gives the update matrices of a whole fleet at once, one
value per house; the fleet steps with them in `engine._advance_slice`.

Geometry-to-parameter derivation rules live in `DerivationConstants`;
they are conventional residential defaults, surfaced so they can be
changed without code edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .domains import check


# Every house has this ceiling height (m) and door area (m^2).
CEILING_HEIGHT = 2.5
DOOR_AREA = 2.0

# the drawn geometry fields that must be positive (window_wall_ratio is a fraction)
_POSITIVE_GEOMETRY = ("floor_area", "air_change_rate", "shgc", "eer", "r_roof", "r_wall",
                      "r_floor", "r_window", "r_door")


def geometry_faults(g):
    """True where a house geometry fails a check.

    `g` maps each drawn field to one float or one array of them.  NaN
    fails the window_wall_ratio check only.
    """
    wwr = g["window_wall_ratio"]
    fault = np.logical_not((0 < wwr) & (wwr < 1)) | (g["shgc"] > 1)
    for name in _POSITIVE_GEOMETRY:
        fault |= g[name] <= 0
    return fault


def etp_faults(p):
    """True where lumped thermal parameters fail a check, in the form of
    `geometry_faults`."""
    # ua_envelope = 0 is admitted so the closed (adiabatic) system can
    # be exercised; it has no finite equilibrium
    fault = p["ua_envelope"] < 0
    for name in ("c_air", "c_mass", "h_mass",
                 "solar_aperture", "cooling_capacity", "rated_electrical_power"):
        fault |= p[name] <= 0
    return fault


@dataclass(frozen=True)
class DerivationConstants:
    """Geometry-to-parameter mapping rules.

    Square footprint is assumed: gross wall area = 4*sqrt(floor_area) *
    CEILING_HEIGHT, with the glazing and the door removed from the
    conducting wall.  Infiltration enters as air_change_rate air volumes
    per hour of outdoor air.  The cooling device is sized to hold the
    design indoor temperature against the design outdoor temperature and
    design solar gain with `oversize_factor` margin, so every house can
    hold any setpoint inside its comfort band on a design-shaped day.
    """

    air_density: float = 1.2            # kg/m^3
    air_heat_capacity: float = 1005.0   # J/(kg*degC)
    c_air_multiplier: float = 3.0       # air capacity x this = c_air (fast furnishings)
    c_mass_air_ratio: float = 1.0       # c_mass = this x (volume air capacity)
    mass_coupling_ratio: float = 3.0    # h_mass = this x ua_envelope
    oversize_factor: float = 1.3
    design_outdoor_c: float = 35.0
    design_indoor_c: float = 23.0
    design_solar_wm2: float = 800.0

    def __post_init__(self):
        check(vars(self))


DEFAULT_DERIVATION = DerivationConstants()

# Electrical powers are snapped to this granularity (kW) when houses are
# drawn and traces generated, so sums and differences of device, load and
# wind powers are exact in binary floating point.
POWER_QUANTUM_KW = 1.0 / 1024.0


def quantize_kw(value_kw):
    """Snap floats or arrays to the dyadic power quantum (2^-10 kW ~ 1 W)."""
    return np.rint(value_kw / POWER_QUANTUM_KW) * POWER_QUANTUM_KW


def derive_etp_terms(g, consts: DerivationConstants = DEFAULT_DERIVATION) -> dict:
    """Map a house geometry onto lumped thermal parameters, unchecked.

    `g` maps each drawn field to one float or one array of them.  Gives
    each of `population.ETP_FIELDS` plus `gross_wall` and `net_wall`
    (m^2).  Conduction UA sums area/R over roof, floor, net wall, window and
    door; infiltration UA adds the air-change enthalpy flow.
    """
    volume = g["floor_area"] * CEILING_HEIGHT
    gross_wall = 4.0 * np.sqrt(g["floor_area"]) * CEILING_HEIGHT
    window_area = g["window_wall_ratio"] * gross_wall
    net_wall = gross_wall - window_area - DOOR_AREA

    ua_conduction = (g["floor_area"] / g["r_roof"]
                     + g["floor_area"] / g["r_floor"]
                     + net_wall / g["r_wall"]
                     + window_area / g["r_window"]
                     + DOOR_AREA / g["r_door"])
    air_capacity = volume * consts.air_density * consts.air_heat_capacity
    ua_infiltration = g["air_change_rate"] * air_capacity / 3600.0
    ua_envelope = ua_conduction + ua_infiltration

    solar_aperture = window_area * g["shgc"]
    design_dt = consts.design_outdoor_c - consts.design_indoor_c
    cooling_capacity = consts.oversize_factor * (ua_envelope * design_dt
                                                 + solar_aperture * consts.design_solar_wm2)
    return {
        "gross_wall": gross_wall,
        "net_wall": net_wall,
        "c_air": consts.c_air_multiplier * air_capacity,
        "c_mass": consts.c_mass_air_ratio * air_capacity,
        "ua_envelope": ua_envelope,
        "h_mass": consts.mass_coupling_ratio * ua_envelope,
        "solar_aperture": solar_aperture,
        "cooling_capacity": cooling_capacity,
        "rated_electrical_power": cooling_capacity / g["eer"],
    }


def discretize(ua, h_mass, c_air, c_mass, dt: float):
    """Exact discrete-time update matrices of many houses for one step of length dt.

    Takes one value per house of each parameter, as float arrays, and
    returns (ad, m): the state propagator exp(A*dt) as a nested 2x2 tuple
    of per-house arrays, and the first column of the input integral
    integral_0^dt exp(A*s) ds, the response to heat put into the air
    node (the only input), as a pair of them.  The state matrix always
    has two distinct real eigenvalues (the off-diagonal product
    h^2/(c_air*c_mass) is positive), so the eigendecomposition is taken
    in closed form.  Valid for ua_envelope >= 0; ua = 0 gives one zero
    eigenvalue and a conservative system.  Raises ValueError where a
    house's square overflows or any entry it returns is not finite.

    The square and the exponentials run per house on Python floats, so
    each house gets the bits a scalar evaluation of the same expressions
    gives: `pow(d, 2)` is libm's pow, whose last bit can differ from
    `d * d`, and `math.exp` and `math.expm1` are libm's too, not NumPy's
    SIMD loops.  Everything else is elementwise IEEE arithmetic.  Those
    libm calls are not the same bits on every CPU, though: glibc picks an
    FMA or a non-FMA variant of `exp`, `expm1` and `pow` by CPU, and the
    variants differ in the last bit of some results.
    """
    # a house whose arithmetic overflows fails the finite check below
    with np.errstate(all="ignore"):
        a11 = -(ua + h_mass) / c_air
        a12 = h_mass / c_air
        a21 = h_mass / c_mass
        a22 = -h_mass / c_mass

        tr = a11 + a22
        try:
            square = np.fromiter(map(pow, (a11 - a22).tolist(), repeat(2)), float, len(a11))
        except OverflowError:
            raise ValueError("a house's thermal rates overflow: its heat capacities are too "
                             "small for its conductances") from None
        disc = np.sqrt(square + 4.0 * a12 * a21)
        lam1 = 0.5 * (tr + disc)
        lam2 = 0.5 * (tr - disc)

        # Eigenvectors v_i = (lam_i - a22, a21); a21 > 0 keeps them independent.
        v1 = lam1 - a22
        v2 = lam2 - a22
        det = a21 * (v1 - v2)

        def exp_and_phi(lam):
            # exp(lam*dt) and the integral of exp(lam*s) over the step, which
            # is dt where lam*dt = 0 and expm1(lam*dt)/lam elsewhere
            u = lam * dt
            e = np.fromiter(map(math.exp, u.tolist()), float, len(u))
            em1 = np.fromiter(map(math.expm1, u.tolist()), float, len(u))
            return e, np.divide(em1, lam, out=np.full(len(u), dt), where=u != 0.0)

        (e1, f1), (e2, f2) = exp_and_phi(lam1), exp_and_phi(lam2)

        # V diag(d1,d2) V^-1 written out for the 2x2 case, by columns
        def first_column(d1, d2):
            return ((v1 * d1 * a21 - v2 * d2 * a21) / det,
                    (a21 * d1 * a21 - a21 * d2 * a21) / det)

        def second_column(d1, d2):
            return ((-v1 * d1 * v2 + v2 * d2 * v1) / det,
                    (-a21 * d1 * v2 + a21 * d2 * v1) / det)

        ad = tuple(zip(first_column(e1, e2), second_column(e1, e2)))
        m = first_column(f1, f2)
    if not all(np.all(np.isfinite(entry)) for entry in (*ad[0], *ad[1], *m)):
        raise ValueError("a house's thermal step matrices are not finite: its parameters "
                         "are too small or too large to discretize")
    return ad, m
