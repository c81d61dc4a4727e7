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
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np


class GeometryError(ValueError):
    """A house geometry field is outside its physical domain."""


class SingularEquilibriumError(ZeroDivisionError):
    """Steady state undefined: no conductance to the outdoors."""


def raise_first(faults, error: type) -> None:
    """Raise `error` with the message of the first fault that holds, for
    `faults` checked on one object of floats."""
    for fault, message in faults:
        if fault:
            raise error(message())


_POSITIVE_GEOMETRY = ("floor_area", "air_change_rate", "shgc", "eer", "r_roof", "r_wall",
                      "r_floor", "r_window", "r_door", "ceiling_height", "door_area")


def geometry_faults(g):
    """The checks of a house geometry as (fault, message) pairs.

    `g` holds one float or one array per field, and each fault is true
    where its check fails, NaN as the dataclass treats it; `message()`
    explains the fault of a single geometry.  `HouseGeometry` raises on
    the first, and population synthesis checks a whole fleet with them.
    """
    for name in _POSITIVE_GEOMETRY:
        yield (getattr(g, name) <= 0,
               lambda name=name: f"{name} must be positive, got {getattr(g, name)}")
    yield (np.logical_not((0 < g.window_wall_ratio) & (g.window_wall_ratio < 1)),
           lambda: f"window_wall_ratio must be in (0,1), got {g.window_wall_ratio}")
    yield g.shgc > 1, lambda: f"shgc must be in (0,1], got {g.shgc}"


def etp_faults(p):
    """The checks of lumped thermal parameters, as `geometry_faults` gives them."""
    for name in ("c_air", "c_mass", "h_mass",
                 "solar_aperture", "cooling_capacity", "rated_electrical_power"):
        yield (getattr(p, name) <= 0,
               lambda name=name: f"{name} must be positive, got {getattr(p, name)}")
    # ua_envelope = 0 is admitted so the closed (adiabatic) system can
    # be exercised; equilibrium_temperature rejects it explicitly.
    yield p.ua_envelope < 0, lambda: f"ua_envelope must be >= 0, got {p.ua_envelope}"


@dataclass(frozen=True)
class HouseGeometry:
    """Physical description of one house, as drawn for the population."""

    floor_area: float          # m^2
    air_change_rate: float     # 1/h
    window_wall_ratio: float   # fraction of gross wall that is glazing
    shgc: float                # solar heat gain coefficient, (0, 1]
    eer: float                 # cooling W (thermal) per electrical W
    r_roof: float              # degC*m^2/W
    r_wall: float
    r_floor: float
    r_window: float
    r_door: float
    ceiling_height: float = 2.5   # m
    door_area: float = 2.0        # m^2

    def __post_init__(self):
        raise_first(geometry_faults(self), GeometryError)


@dataclass(frozen=True)
class EtpParameters:
    """Lumped thermal parameters of one house plus its cooling device."""

    c_air: float                   # J/degC, air + fast-coupled contents
    c_mass: float                  # J/degC, building mass
    ua_envelope: float             # W/degC to outdoors, incl. infiltration
    h_mass: float                  # W/degC air<->mass coupling
    solar_aperture: float          # m^2 effective (glazing area x SHGC)
    cooling_capacity: float        # W thermal removed while running
    rated_electrical_power: float  # W electrical input while running

    def __post_init__(self):
        raise_first(etp_faults(self), GeometryError)


@dataclass(frozen=True)
class DerivationConstants:
    """Geometry-to-parameter mapping rules.

    Square footprint is assumed: gross wall area = 4*sqrt(floor_area) *
    ceiling_height, with the glazing and the door removed from the
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
        # each range is a positive check, so that NaN fails it
        for name in ("air_density", "air_heat_capacity", "c_air_multiplier",
                     "c_mass_air_ratio", "mass_coupling_ratio", "oversize_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{getattr(self, name)}")
        if not 0 <= self.design_solar_wm2 < math.inf:
            raise ValueError(f"design_solar_wm2 must be finite and >= 0, got "
                             f"{self.design_solar_wm2}")
        if not -math.inf < self.design_indoor_c < math.inf:
            raise ValueError(f"design_indoor_c must be finite, got {self.design_indoor_c}")
        if not self.design_indoor_c < self.design_outdoor_c < math.inf:
            raise ValueError(f"design_outdoor_c must be finite and above design_indoor_c "
                             f"({self.design_indoor_c}), got {self.design_outdoor_c}")


DEFAULT_DERIVATION = DerivationConstants()

# Electrical powers are snapped to this granularity (kW) when houses are
# built for a fleet, so sums and differences of device powers are exact
# in binary floating point.  See population.quantize_power_kw.
POWER_QUANTUM_KW = 1.0 / 1024.0


def derive_etp_terms(g, consts: DerivationConstants = DEFAULT_DERIVATION) -> dict:
    """The arithmetic of `derive_etp_params`, unchecked, on one float or
    one array per geometry field: each `EtpParameters` field plus
    `gross_wall` and `net_wall` (m^2)."""
    volume = g.floor_area * g.ceiling_height
    gross_wall = 4.0 * np.sqrt(g.floor_area) * g.ceiling_height
    window_area = g.window_wall_ratio * gross_wall
    net_wall = gross_wall - window_area - g.door_area

    ua_conduction = (g.floor_area / g.r_roof
                     + g.floor_area / g.r_floor
                     + net_wall / g.r_wall
                     + window_area / g.r_window
                     + g.door_area / g.r_door)
    air_capacity = volume * consts.air_density * consts.air_heat_capacity
    ua_infiltration = g.air_change_rate * air_capacity / 3600.0
    ua_envelope = ua_conduction + ua_infiltration

    solar_aperture = window_area * g.shgc
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
        "rated_electrical_power": cooling_capacity / g.eer,
    }


def derive_etp_params(g: HouseGeometry, consts: DerivationConstants = DEFAULT_DERIVATION) -> EtpParameters:
    """Map a house geometry onto lumped thermal parameters.

    Conduction UA sums area/R over roof, floor, net wall, window and
    door; infiltration UA adds the air-change enthalpy flow.  Raises
    GeometryError when any derived quantity degenerates.
    """
    terms = derive_etp_terms(g, consts)
    if terms["net_wall"] <= 0:
        raise GeometryError(f"door and glazing exceed the gross wall area "
                            f"({terms['gross_wall']:.2f} m^2)")
    return EtpParameters(**{f.name: float(terms[f.name]) for f in fields(EtpParameters)})


def discretize(ua, h_mass, c_air, c_mass, dt: float):
    """Exact discrete-time update matrices of many houses for one step of length dt.

    Takes one value per house of each parameter, as float arrays, and
    returns (ad, m): the state propagator exp(A*dt) and the input
    integral  m = integral_0^dt exp(A*s) ds, both as nested 2x2 tuples
    of per-house arrays.  The state matrix always has two distinct real
    eigenvalues (the off-diagonal product h^2/(c_air*c_mass) is
    positive), so the eigendecomposition is taken in closed form.  Valid
    for ua_envelope >= 0; ua = 0 gives one zero eigenvalue and a
    conservative system.  Raises ValueError where a house's square
    overflows or any entry of its matrices is not finite.

    The square and the exponentials run per house on Python floats:
    `pow(d, 2)` is libm's pow, whose last bit can differ from `d * d`, and
    NumPy's exp gives different bits on different CPUs.  Everything else is
    elementwise IEEE arithmetic, so each house gets the bits a scalar
    evaluation of the same expressions gives.
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

        def transform(d1, d2):
            # V diag(d1,d2) V^-1 written out for the 2x2 case
            m11 = (v1 * d1 * a21 - v2 * d2 * a21) / det
            m12 = (-v1 * d1 * v2 + v2 * d2 * v1) / det
            m21 = (a21 * d1 * a21 - a21 * d2 * a21) / det
            m22 = (-a21 * d1 * v2 + a21 * d2 * v1) / det
            return ((m11, m12), (m21, m22))

        ad, m = transform(e1, e2), transform(f1, f2)
    if not all(np.all(np.isfinite(entry)) for matrix in (ad, m) for row in matrix
               for entry in row):
        raise ValueError("a house's thermal step matrices are not finite: its parameters "
                         "are too small or too large to discretize")
    return ad, m


def equilibrium_temperature(p: EtpParameters, t_out: float, solar: float,
                            cooling_on: bool) -> float:
    """Steady-state indoor air temperature for fixed inputs.

    At equilibrium the mass node matches the air node, so the air
    balance reduces to ua * (t_out - t_air) + q_net = 0.
    """
    if p.ua_envelope == 0:
        raise SingularEquilibriumError("ua_envelope = 0 has no finite equilibrium")
    q_cool = p.cooling_capacity if cooling_on else 0.0
    return t_out + (p.solar_aperture * solar - q_cool) / p.ua_envelope
