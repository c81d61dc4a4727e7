"""Synthetic weather, uncontrollable-load and wind traces.

Shapes are anchored on two scenario ratios: installed wind capacity is a
fraction of the system peak and the fleet's free peak is a fraction of
the same peak.  The system peak is not known until a population exists,
so generators take the fleet's estimated free peak and scale the load
trace to close the identity  system_peak = free_peak / share.

Outdoor temperature is a warm-summer diurnal (tropical night: the
overnight minimum stays above every customer's lower comfort limit, so a
free-running fleet never drifts out of band).  Wind is a mean-reverting
level plus a fast mean-reverting fluctuation; the fast component is what
the fleet is asked to absorb.

Power columns are quantized to the dyadic kW quantum so the tie-line
power identity stays exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import rng
from .domains import INTERVALS, check, contains
from .textio import read_table, write_table
from .thermal import quantize_kw

DAY_S = 86400

# diurnal anchors (time-of-day in hours, temperatures in degC).  The
# shapes are deliberately gentle: the filter target lags a ramp of slope
# r by tau * r, and that lag is served out of the fleet's baseline, so
# ramps are kept shallow enough that the required deviation stays well
# inside the fleet's comfort headroom at every hour.
TOUT_MEAN_C = 32.2
TOUT_SWING_C = 2.4
TOUT_PEAK_HOUR = 14.0
TOUT_NOISE_STD_C = 0.25
TOUT_NOISE_TAU_S = 3600.0

SOLAR_PEAK_WM2 = 790.0
SOLAR_SUNRISE_HOUR = 5.5
SOLAR_SUNSET_HOUR = 19.5

LOAD_PEAK_HOUR = 15.0
LOAD_SHAPE_FLOOR = 0.84          # shape value in the overnight trough
LOAD_NOISE_STD_FRAC = 0.012
LOAD_NOISE_TAU_S = 2400.0

WIND_LEVEL_MEAN = 0.45           # fraction of capacity
WIND_LEVEL_STD = 0.12
WIND_LEVEL_TAU_S = 14400.0
WIND_FAST_STD_FRAC = 0.055       # fraction of capacity
WIND_FAST_TAU_S = 480.0

TRACE_CSV_HEADER = "time_s,t_out_c,solar_wm2,p_load_kw,p_wind_kw"


@dataclass(frozen=True)
class TraceSet:
    """Uniform-grid input series at the record cadence."""

    time_s: np.ndarray
    t_out_c: np.ndarray
    solar_wm2: np.ndarray
    p_load_kw: np.ndarray
    p_wind_kw: np.ndarray
    cadence_s: int

    def __post_init__(self):
        n = len(self.time_s)
        for name in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")

    def __len__(self) -> int:
        return len(self.time_s)


def _ou_series(z: np.ndarray, dt: float, tau: float, sigma: float) -> np.ndarray:
    """Stationary mean-reverting noise (zero mean, std sigma): len(z) - 1
    values driven by the standard normals `z`, stepped on Python floats.
    The last normal would drive the step past the end, so it is unused.
    """
    decay = math.exp(-dt / tau)
    scale = sigma * math.sqrt(1.0 - decay * decay)
    z = z.tolist()
    n = len(z) - 1
    out = [sigma * z[0]]
    for step in z[1:n]:
        out.append(decay * out[-1] + scale * step)
    return np.array(out[:n])


def peak_weather() -> tuple[float, float]:
    """(t_out, solar) at the hottest hour of the default diurnal shape."""
    solar = SOLAR_PEAK_WM2 * math.sin(
        math.pi * (TOUT_PEAK_HOUR - SOLAR_SUNRISE_HOUR)
        / (SOLAR_SUNSET_HOUR - SOLAR_SUNRISE_HOUR))
    return TOUT_MEAN_C + TOUT_SWING_C, solar


def generate_traces(seed: int, acl_free_peak_kw: float,
                    wind_capacity_ratio: float = 0.27,
                    acl_peak_share: float = 0.40,
                    days: int = 1, cadence_s: int = 10, warmup_s: int = 7200,
                    stream: int = rng.TRACE_STREAM,
                    tout_mean_c: float = TOUT_MEAN_C,
                    tout_swing_c: float = TOUT_SWING_C,
                    solar_peak_wm2: float = SOLAR_PEAK_WM2) -> TraceSet:
    """Generate input traces for `days` days plus a leading warm-up.

    time 0 is `warmup_s` before midnight of day 0; all diurnal shapes are
    phased so that (t - warmup_s) is the time of day.
    """
    if acl_free_peak_kw <= 0:
        raise ValueError("acl_free_peak_kw must be positive")
    check({"wind_capacity_ratio": wind_capacity_ratio, "acl_peak_share": acl_peak_share})
    total_s = warmup_s + days * DAY_S
    n = total_s // cadence_s
    # the normals of the temperature, load, wind level and fast wind noise
    z = rng.substream(seed, stream).standard_normal(4 * (n + 1)).reshape(4, n + 1)
    t = np.arange(n, dtype=np.int64) * cadence_s
    tod = ((t - warmup_s) % DAY_S).astype(float)

    system_peak = acl_free_peak_kw / acl_peak_share
    load_peak = system_peak - acl_free_peak_kw
    wind_capacity = wind_capacity_ratio * system_peak

    t_out = (tout_mean_c
             + tout_swing_c * np.cos(2.0 * math.pi * (tod - TOUT_PEAK_HOUR * 3600.0) / DAY_S)
             + _ou_series(z[0], cadence_s, TOUT_NOISE_TAU_S, TOUT_NOISE_STD_C))

    daylight = np.sin(math.pi * (tod / 3600.0 - SOLAR_SUNRISE_HOUR)
                      / (SOLAR_SUNSET_HOUR - SOLAR_SUNRISE_HOUR))
    solar = solar_peak_wm2 * np.clip(daylight, 0.0, None)

    shape = (LOAD_SHAPE_FLOOR
             + (1.0 - LOAD_SHAPE_FLOOR)
             * 0.5 * (1.0 + np.cos(2.0 * math.pi * (tod - LOAD_PEAK_HOUR * 3600.0) / DAY_S)))
    load = load_peak * shape * (1.0 + _ou_series(z[1], cadence_s,
                                                 LOAD_NOISE_TAU_S, LOAD_NOISE_STD_FRAC))

    level = wind_capacity * np.clip(
        WIND_LEVEL_MEAN + _ou_series(z[2], cadence_s, WIND_LEVEL_TAU_S, WIND_LEVEL_STD),
        0.04, 0.92)
    fast = wind_capacity * _ou_series(z[3], cadence_s, WIND_FAST_TAU_S, WIND_FAST_STD_FRAC)
    wind = np.clip(level + fast, 0.0, wind_capacity)

    return TraceSet(time_s=t, t_out_c=t_out, solar_wm2=solar,
                    p_load_kw=quantize_kw(load), p_wind_kw=quantize_kw(wind),
                    cadence_s=cadence_s)


def generate_training_traces(seed: int, acl_free_peak_kw: float, days: int,
                             wind_capacity_ratio: float = 0.27,
                             acl_peak_share: float = 0.40,
                             cadence_s: int = 10, warmup_s: int = 7200) -> list[TraceSet]:
    """One trace set per training day, each with distinct weather.

    Day-level weather parameters are drawn from a dedicated substream so
    the regression sees a spread of hot and mild days: day d's mean
    temperature, swing and solar peak take outputs 3d, 3d + 1 and 3d + 2.
    """
    low, high = np.array([29.5, 2.2, 660.0]), np.array([32.5, 4.2, 840.0])
    weather = low + (high - low) * rng.stream_uniforms(
        seed, rng.TRAINING_TRACE_STREAM, 3 * days).reshape(days, 3)
    out = []
    for day, (mean_c, swing_c, solar_peak) in enumerate(weather.tolist()):
        out.append(generate_traces(
            seed, acl_free_peak_kw,
            wind_capacity_ratio=wind_capacity_ratio,
            acl_peak_share=acl_peak_share,
            days=1, cadence_s=cadence_s, warmup_s=warmup_s,
            stream=rng.TRAINING_TRACE_STREAM + 1000 + day,
            tout_mean_c=mean_c, tout_swing_c=swing_c,
            solar_peak_wm2=solar_peak))
    return out


def write_traces(fh: TextIO, traces: TraceSet) -> None:
    write_table(fh, TRACE_CSV_HEADER, [traces.time_s, traces.t_out_c, traces.solar_wm2,
                                       traces.p_load_kw, traces.p_wind_kw])


def read_traces(fh: TextIO, cadence_s: int | None = None) -> TraceSet:
    cols = read_table(fh, TRACE_CSV_HEADER, ints=("time_s",))
    for name, column in cols.items():
        bad = ~contains(name, column)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"trace column {name} must be in {INTERVALS[name]}, "
                             f"got {column[row]} in data row {row + 1}")
    time_s = cols.pop("time_s")
    if len(time_s) < 2:
        raise ValueError("trace file needs at least two rows")
    if time_s[0] != 0:  # runs read row i as time i * cadence
        raise ValueError(f"trace time must start at 0 s, got {time_s[0]} s")
    cad = int(time_s[1] - time_s[0])
    if cadence_s is not None and cad != cadence_s:
        raise ValueError(f"trace cadence {cad}s does not match expected {cadence_s}s")
    if np.any(np.diff(time_s) != cad):
        raise ValueError("trace time grid is not uniform")
    return TraceSet(time_s=time_s, cadence_s=cad, **cols)
