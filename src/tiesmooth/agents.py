"""Comfort settings of one air-conditioning load.

The settings never leave the device: a bid carries only its temperature
state (the price), its rated power and its on/off state.  The rules that
read them (bid price, setpoint response to the broadcast price,
thermostat with comfort guards) run fleet-wide as array kernels in
`engine`.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        if self.t_low <= 0 or self.t_high <= 0:
            raise ValueError("t_low and t_high must be positive")
        if not 0 < self.deadband < min(self.t_high, self.t_low):
            raise ValueError(f"deadband {self.deadband} outside (0, min(t_high, t_low))")
        if self.rated_power <= 0:
            raise ValueError("rated_power must be positive")
        if not (0 < self.epsilon and
                self.epsilon + self.deadband / 2.0 <= min(self.t_high, self.t_low)):
            raise ValueError(
                f"epsilon {self.epsilon} must keep the override band inside the limits")

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
