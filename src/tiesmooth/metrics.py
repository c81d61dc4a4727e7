"""Run comparison metrics: fluctuation rates, tracking errors, comfort.

The headline quantity is the trailing 10-minute fluctuation rate of the
tie-line power: max minus min over the samples in (t - 10 min, t].  A
controlled run is compared against its paired free run (same fleet,
traces and seed) so differences isolate the coordinator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

from .engine import RunResult
from .textio import write_keyvals, write_table

WINDOW_S = 600


class IncomparableRunsError(ValueError):
    """A controlled run and a free run that cannot be compared."""


class WindowError(IncomparableRunsError):
    """Requested fluctuation window reaches before the series start, so
    the run has nothing to compare."""


def fluctuation_series(p_g: np.ndarray, record_cycle_s: int) -> np.ndarray:
    """Fluctuation rate at every sample with a full trailing window."""
    w = WINDOW_S // record_cycle_s
    if w < 1:
        raise WindowError(f"a {record_cycle_s} s record cycle is longer than the "
                          f"{WINDOW_S} s window")
    if len(p_g) < w:
        raise WindowError("series shorter than one window")
    view = np.lib.stride_tricks.sliding_window_view(p_g, w)
    return view.max(axis=1) - view.min(axis=1)


@dataclass(frozen=True)
class MetricsReport:
    """Side-by-side summary of a controlled run and its paired free run."""

    n_records: int
    window_s: int
    max_fluct_controlled_kw: float
    max_fluct_uncontrolled_kw: float
    median_fluct_controlled_kw: float
    median_fluct_uncontrolled_kw: float
    max_fluct_reduction_pct: float
    frac_instants_not_worse: float
    rmse_tie_tracking_kw: float     # tie-line power vs its filter target
    rmse_acl_tracking_kw: float     # fleet power vs its target
    comfort_violation_acl_min: float
    total_acl_min: float
    comfort_violation_pct: float
    s_mean_abs: float
    s_max_abs: float
    frac_cycles_s_below_090: float
    frac_cycles_s_saturated: float  # |S| >= 0.98

    def __post_init__(self):
        for name in ("max_fluct_controlled_kw", "max_fluct_uncontrolled_kw",
                     "median_fluct_controlled_kw", "median_fluct_uncontrolled_kw",
                     "rmse_tie_tracking_kw", "rmse_acl_tracking_kw",
                     "comfort_violation_acl_min", "total_acl_min"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise IncomparableRunsError(f"{name} must be finite and nonnegative")
        if not -math.inf < self.max_fluct_reduction_pct <= 100:
            raise IncomparableRunsError("max_fluct_reduction_pct must be finite and at most 100")


def compute_metrics(controlled: RunResult, uncontrolled: RunResult) -> MetricsReport:
    """Compare a controlled run against its paired uncontrolled run."""
    if len(controlled.time_s) != len(uncontrolled.time_s):
        raise IncomparableRunsError("runs have different lengths and cannot be compared")
    if controlled.record_cycle_s != uncontrolled.record_cycle_s:
        raise IncomparableRunsError("runs have different record cadences")

    sl = controlled.metric_slice()
    rc = controlled.record_cycle_s
    w = WINDOW_S // rc

    # a spread, square, mean or median past the largest double is inf,
    # which the report refuses
    with np.errstate(over="ignore"):
        fluct_c = fluctuation_series(controlled.p_g[sl], rc)
        fluct_u = fluctuation_series(uncontrolled.p_g[sl], rc)

        max_c, max_u = float(np.max(fluct_c)), float(np.max(fluct_u))
        reduction = 100.0 * (1.0 - max_c / max_u) if max_u > 0 else 0.0
        not_worse = float(np.mean(fluct_c <= fluct_u))

        lpf = controlled.p_g_lpf[sl]
        target = controlled.p_ac_target[sl]
        valid, valid_t = np.isfinite(lpf), np.isfinite(target)
        s_abs = np.abs(np.array([r.s_aggregate for r in controlled.cycle_records
                                 if r.k * controlled.control_cycle_s >= controlled.warmup_s]))
        if not (valid.any() and valid_t.any() and len(s_abs)):
            raise IncomparableRunsError("the controlled run cleared no cycle inside its "
                                        "measured window")
        rmse_tie = float(np.sqrt(np.mean((controlled.p_g[sl][valid] - lpf[valid]) ** 2)))
        rmse_acl = float(np.sqrt(np.mean(
            (controlled.p_ac_actual[sl][valid_t] - target[valid_t]) ** 2)))

        pct = (100.0 * controlled.comfort_violation_acl_min / controlled.total_acl_min
               if controlled.total_acl_min > 0 else 0.0)

        return MetricsReport(
            n_records=int(len(controlled.time_s) - sl.start - w + 1),
            window_s=WINDOW_S,
            max_fluct_controlled_kw=max_c,
            max_fluct_uncontrolled_kw=max_u,
            median_fluct_controlled_kw=float(np.median(fluct_c)),
            median_fluct_uncontrolled_kw=float(np.median(fluct_u)),
            max_fluct_reduction_pct=reduction,
            frac_instants_not_worse=not_worse,
            rmse_tie_tracking_kw=rmse_tie,
            rmse_acl_tracking_kw=rmse_acl,
            comfort_violation_acl_min=controlled.comfort_violation_acl_min,
            total_acl_min=controlled.total_acl_min,
            comfort_violation_pct=pct,
            s_mean_abs=float(np.mean(s_abs)),
            s_max_abs=float(np.max(s_abs)),
            frac_cycles_s_below_090=float(np.mean(s_abs <= 0.9)),
            frac_cycles_s_saturated=float(np.mean(s_abs >= 0.98)),
        )


def write_report(fh: TextIO, report: MetricsReport) -> None:
    fh.write("tie-line smoothing metrics\n")
    fh.write("==========================\n")
    write_keyvals(fh, asdict(report))


def _write_interleaved(fh: TextIO, header: str, time_s: np.ndarray,
                       series: dict[str, np.ndarray]) -> None:
    """Long format: at each time, one row per named series in dict order."""
    write_table(fh, header, [np.repeat(time_s, len(series)), list(series) * len(time_s),
                             np.stack(list(series.values()), axis=1).ravel()])


def write_smoothing_csv(fh: TextIO, controlled: RunResult,
                        uncontrolled: RunResult) -> None:
    """Tidy long-format data behind the smoothing comparison plot."""
    sl = controlled.metric_slice()
    _write_interleaved(fh, "time_s,series,value_kw", controlled.time_s[sl], {
        "p_g_controlled": controlled.p_g[sl],
        "p_g_uncontrolled": uncontrolled.p_g[sl],
        "p_g_lpf": controlled.p_g_lpf[sl]})


def write_fluctuation_csv(fh: TextIO, controlled: RunResult,
                          uncontrolled: RunResult) -> None:
    sl = controlled.metric_slice()
    rc = controlled.record_cycle_s
    w = WINDOW_S // rc
    _write_interleaved(fh, "time_s,series,value_kw", controlled.time_s[sl][w - 1:], {
        "fluct10_controlled": fluctuation_series(controlled.p_g[sl], rc),
        "fluct10_uncontrolled": fluctuation_series(uncontrolled.p_g[sl], rc)})


def write_s_trajectory_csv(fh: TextIO, controlled: RunResult,
                           uncontrolled: RunResult) -> None:
    records = controlled.cycle_records
    sl = uncontrolled.metric_slice()
    write_table(fh, "time_s,series,value", [
        [r.k * controlled.control_cycle_s for r in records] + uncontrolled.time_s[sl].tolist(),
        ["s_controlled"] * len(records) + ["s_uncontrolled"] * (sl.stop - sl.start),
        [r.s_aggregate for r in records] + uncontrolled.s_aggregate[sl].tolist()])
