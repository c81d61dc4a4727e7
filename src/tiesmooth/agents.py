"""Comfort settings of one air-conditioning load.

The settings never leave the device: a bid carries only its temperature
state (the price), its rated power and its on/off state.  The rules that
read them (bid price, setpoint response to the broadcast price,
thermostat with comfort guards) run fleet-wide as array kernels in
`engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermal import raise_first


def controller_faults(a):
    """The checks of a controller's settings as (fault, message) pairs,
    in the form of `thermal.geometry_faults`.

    The last one is the engine's: the band a device drifts off in,
    (t_max - epsilon) -/+ deadband/2, must start below t_max in the
    engine's arithmetic, which a vanishing deadband and margin break.
    """
    narrower = np.minimum(a.t_high, a.t_low)
    t_max = a.t_set + a.t_high
    yield ((a.t_low <= 0) | (a.t_high <= 0),
           lambda: "t_low and t_high must be positive")
    yield (np.logical_not((0 < a.deadband) & (a.deadband < narrower)),
           lambda: f"deadband {a.deadband} outside (0, min(t_high, t_low))")
    yield a.rated_power <= 0, lambda: "rated_power must be positive"
    yield (np.logical_not((0 < a.epsilon) & (a.epsilon + a.deadband / 2.0 <= narrower)),
           lambda: f"epsilon {a.epsilon} must keep the override band inside the limits")
    yield (np.logical_not((t_max - a.epsilon) - a.deadband / 2.0 < t_max),
           lambda: f"deadband {a.deadband} and epsilon {a.epsilon} are too small to "
                   f"separate the override band from t_max {t_max}")


@dataclass(frozen=True)
class AclAgentConfig:
    """Customer comfort settings plus the device rating."""

    t_set: float        # degC preferred setpoint
    deadband: float     # degC full hysteresis width
    t_high: float       # degC, upper limit is t_set + t_high
    t_low: float        # degC, lower limit is t_set - t_low
    rated_power: float  # kW electrical while running
    epsilon: float      # degC margin the override keeps inside the limits

    def __post_init__(self):
        raise_first(controller_faults(self), ValueError)

    @property
    def t_max(self) -> float:
        return self.t_set + self.t_high

    @property
    def t_min(self) -> float:
        return self.t_set - self.t_low


def default_epsilon(deadband: float, margin: float = 0.05) -> float:
    """Smallest override margin that keeps the whole hysteresis band
    inside the comfort limits, plus a little slack."""
    return deadband / 2.0 + margin
