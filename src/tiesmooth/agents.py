"""Comfort settings of the air-conditioning loads: their checks and the
override margin.

The settings never leave the device: a bid carries only its temperature
state (the price), its rated power and its on/off state.  The rules that
read them (bid price, setpoint response to the broadcast price,
thermostat with comfort guards) run fleet-wide as array kernels in
`engine`.
"""

from __future__ import annotations

import numpy as np


def controller_faults(a):
    """True where a controller's settings fail a check, in the form of
    `thermal.geometry_faults`: `a` maps t_set, deadband, t_high, t_low,
    rated_power (kW) and epsilon to floats or arrays.

    The last check is the engine's: the band a device drifts off in,
    (t_max - epsilon) -/+ deadband/2, must start below t_max in the
    engine's arithmetic, which a vanishing deadband and margin break.
    """
    deadband, epsilon = a["deadband"], a["epsilon"]
    narrower = np.minimum(a["t_high"], a["t_low"])
    t_max = a["t_set"] + a["t_high"]
    fault = (a["t_low"] <= 0) | (a["t_high"] <= 0) | (a["rated_power"] <= 0)
    fault |= np.logical_not((0 < deadband) & (deadband < narrower))
    fault |= np.logical_not((0 < epsilon) & (epsilon + deadband / 2.0 <= narrower))
    fault |= np.logical_not((t_max - epsilon) - deadband / 2.0 < t_max)
    return fault


def default_epsilon(deadband: float, margin: float = 0.05) -> float:
    """Smallest override margin that keeps the whole hysteresis band
    inside the comfort limits, plus a little slack."""
    return deadband / 2.0 + margin
