"""The domain of every input, declared once: an interval for each scalar
key of a scenario file's [scenario], [mgcc] and [thermal] sections, for
the draws of the comfort settings in [population] (a uniform's range, a
normal's mean +- 3 std) and for each trace column, then the relations
between keys.  An interval is two positive comparisons, so NaN lies in
none.  The README lists both.
"""

from __future__ import annotations

import operator
from typing import Mapping

DOMAINS = {
    "scenario": {
        "n_acl": "[1, inf)", "seed": "[0, 2**64)",
        # the thermal step is tested against half-steps up to 60 s
        "sim_step_s": "(0, 60]",
        "record_cycle_s": "(0, inf)", "control_cycle_s": "(0, inf)", "bid_lead_s": "(0, inf)",
        "duration_s": "(0, inf)", "warmup_s": "[0, inf)", "wind_capacity_ratio": "[0, inf)",
        "acl_peak_share": "(0, 1]", "baseline_bias": "(-1, 1]",
        "soa_feedback_enabled": "[0, 1]",  # false or true
        "training_days": "[1, inf)",  # `train` asks for 2 (`cli.cmd_train` says why)
        "epsilon_margin_c": "[0, inf)"},
    "mgcc": {
        "tau_s": "(0, inf)",  # the filter's weight tau / (tau + dt) is NaN at tau = inf
        "s1": "(0, 1]", "s2": "(0, 1]", "s3": "(0, 1]",
        # percent of the baseline a cycle, at most all of it
        "dp1": "(0, 100]", "dp2": "(0, 100]", "dp3": "(0, 100]",
        "gamma": "(0, inf]"},
    "thermal": {
        "air_density": "(0, inf)", "air_heat_capacity": "(0, inf)",
        "c_air_multiplier": "(0, inf)", "c_mass_air_ratio": "(0, inf)",
        "mass_coupling_ratio": "(0, inf)", "oversize_factor": "(0, inf)",
        "design_outdoor_c": "(-inf, inf)", "design_indoor_c": "(-inf, inf)",
        "design_solar_wm2": "[0, inf)"},
    "population": {
        # the setpoint range of residential thermostats, 60 to 90 degF
        "t_set": "[16, 32]",
        # the comfort limits t_set + t_high and t_set - t_low stay between 11 degC,
        # colder than rooms are kept, and body temperature, 37 degC
        "t_high": "(0, 5]", "t_low": "(0, 5]"},
    "traces": {
        "time_s": "[0, inf)",
        # around the coldest and hottest air recorded on Earth, -89.2 and 56.7 degC
        "t_out_c": "[-90, 60]",
        # above the solar constant, 1 361 W/m^2, which no ground irradiance reaches
        "solar_wm2": "[0, 1500]",
        # multiples of 2**-10 kW add exactly below 2**43 kW: 8 times the headroom
        # for p_ac + load - wind
        "p_load_kw": "[0, 2**40]", "p_wind_kw": "[0, 2**40]"},
}

# chains of keys, each link a < b, a <= b or a | b (a divides b); tested
# once every value lies in its interval.  Records fall on the record grid
# from 0, so both ends of the measured window must too.
RELATIONS = ("sim_step_s | record_cycle_s | control_cycle_s",
             "sim_step_s | bid_lead_s < control_cycle_s",
             "record_cycle_s | duration_s", "record_cycle_s | warmup_s",
             "s1 < s2 < s3", "dp1 <= dp2 <= dp3", "design_indoor_c < design_outdoor_c")
_LINKS = {"<": operator.lt, "<=": operator.le, "|": lambda a, b: b % a == 0}


def _membership(interval: str):
    low, high = (float(b) ** int(p or 1) for b, _, p in
                 (bound.partition("**") for bound in interval[1:-1].split(", ")))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return lambda x: above(low, x) & below(x, high)


INTERVALS = {name: interval for rows in DOMAINS.values() for name, interval in rows.items()}
_TESTS = {name: _membership(interval) for name, interval in INTERVALS.items()}


def contains(name: str, value):
    """Whether `value`, a number or elementwise an array, lies in the interval of `name`."""
    return _TESTS[name](value)


def check(values: Mapping[str, object]) -> None:
    """ValueError naming the first value outside its interval, else the
    first relation among the given keys that does not hold."""
    for name, value in values.items():
        if not contains(name, value):
            raise ValueError(f"{name} must be in {INTERVALS[name]}, got {value}")
    for relation in RELATIONS:
        words = relation.split()
        if set(words[::2]) <= values.keys() and not all(
                _LINKS[link](values[a], values[b])
                for a, link, b in zip(words[::2], words[1::2], words[2::2])):
            raise ValueError(f"{relation} must hold, got " + ", ".join(
                f"{key} = {values[key]}" for key in words[::2]))
