"""Discrete-time simulation harness.

Houses advance on the simulation step, records land on the record
cadence, and the market runs once per control cycle with bids collected
a fixed lead before the cycle boundary.  House state lives in flat
arrays and every per-house update is elementwise, so houses step
independently of one another.

The tie-line power at any instant is fleet electrical power plus
uncontrollable load minus wind (lossless balance).  Device ratings and
trace powers are dyadic multiples of the power quantum, which makes that
identity — and the coordinator's net-load estimate — exact in floating
point, not just close.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import rng
from .baseline import BaselineModel, CorrectionState, TrainingSample
from .market import BidBatch
from .mgcc import (CycleRecord, LpfState, read_cycle_records, run_control_cycle,
                   write_cycle_records)
from .population import House
from .scenario import ScenarioConfig
from .textio import fmt, parse, read_keyvals, read_table, write_keyvals, write_table
from .thermal import discretize
from .traces import TraceSet


class NumericAbortError(RuntimeError):
    """A house state went non-finite; carries the control cycle index."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        super().__init__(f"non-finite house state at control cycle {cycle}")


@dataclass
class Fleet:
    """Array-of-houses state for the hot loop."""

    n: int
    rated_kw: np.ndarray
    t_set: np.ndarray
    half_deadband: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray
    epsilon: np.ndarray
    t_high: np.ndarray
    t_low: np.ndarray
    # discretized thermal response (per house, for one sim step)
    ad11: np.ndarray
    ad12: np.ndarray
    ad21: np.ndarray
    ad22: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    ua: np.ndarray
    aperture: np.ndarray
    cap_w: np.ndarray
    c_air: np.ndarray
    # mutable state
    t_air: np.ndarray = field(default=None)
    t_mass: np.ndarray = field(default=None)
    on: np.ndarray = field(default=None)
    active_setpoint: np.ndarray = field(default=None)
    soa_bid: np.ndarray = field(default=None)


def build_fleet(houses: Sequence[House], sim_step_s: float) -> Fleet:
    n = len(houses)
    arr = lambda f: np.array([f(h) for h in houses], dtype=float)
    ads = [discretize(h.etp, float(sim_step_s)) for h in houses]
    fleet = Fleet(
        n=n,
        rated_kw=arr(lambda h: h.agent.rated_power),
        t_set=arr(lambda h: h.agent.t_set),
        half_deadband=arr(lambda h: h.agent.deadband / 2.0),
        t_min=arr(lambda h: h.agent.t_min),
        t_max=arr(lambda h: h.agent.t_max),
        epsilon=arr(lambda h: h.agent.epsilon),
        t_high=arr(lambda h: h.agent.t_high),
        t_low=arr(lambda h: h.agent.t_low),
        ad11=np.array([a[0][0][0] for a in ads]),
        ad12=np.array([a[0][0][1] for a in ads]),
        ad21=np.array([a[0][1][0] for a in ads]),
        ad22=np.array([a[0][1][1] for a in ads]),
        m1=np.array([a[1][0][0] for a in ads]),
        m2=np.array([a[1][1][0] for a in ads]),
        ua=arr(lambda h: h.etp.ua_envelope),
        aperture=arr(lambda h: h.etp.solar_aperture),
        cap_w=arr(lambda h: h.etp.cooling_capacity),
        c_air=arr(lambda h: h.etp.c_air),
    )
    fleet.t_air = fleet.t_set.copy()
    fleet.t_mass = fleet.t_set.copy()
    fleet.on = np.zeros(n, dtype=bool)
    fleet.active_setpoint = fleet.t_set.copy()
    fleet.soa_bid = np.zeros(n)
    return fleet


def seed_fleet_states(fleet: Fleet, seed: int) -> None:
    """Scatter initial air temperatures across the hysteresis bands."""
    gen = rng.substream(seed, rng.INITIAL_STATE_STREAM)
    offsets = gen.uniform(-1.0, 1.0, fleet.n) * fleet.half_deadband
    fleet.t_air = fleet.t_set + offsets
    fleet.t_mass = fleet.t_air.copy()
    fleet.on = fleet.t_air > fleet.t_set
    fleet.active_setpoint = fleet.t_set.copy()
    fleet.soa_bid = np.zeros(fleet.n)


def fleet_soa(fleet: Fleet) -> np.ndarray:
    dev = fleet.t_air - fleet.t_set
    raw = dev / np.where(dev >= 0.0, fleet.t_high, fleet.t_low)
    return np.minimum(np.maximum(raw, -1.0), 1.0)


def _thermostat_slice(fleet: Fleet) -> None:
    t, sp, h = fleet.t_air, fleet.active_setpoint, fleet.half_deadband
    fleet.on = (((fleet.on | (t > sp + h)) & ~(t < sp - h) | (t >= fleet.t_max))
                & ~(t <= fleet.t_min))


def _advance_slice(fleet: Fleet, t_out: float, solar: float) -> None:
    b0 = (fleet.ua * t_out + fleet.aperture * solar
          - fleet.cap_w * fleet.on) / fleet.c_air
    t_air = fleet.ad11 * fleet.t_air + fleet.ad12 * fleet.t_mass + fleet.m1 * b0
    t_mass = fleet.ad21 * fleet.t_air + fleet.ad22 * fleet.t_mass + fleet.m2 * b0
    fleet.t_air = t_air
    fleet.t_mass = t_mass


@dataclass
class RunResult:
    """Everything one run produces, ready for CSV emission and metrics."""

    controlled: bool
    record_cycle_s: int
    control_cycle_s: int
    warmup_s: int
    total_rated_kw: float
    time_s: np.ndarray
    p_g: np.ndarray
    p_g0_reference: np.ndarray
    p_g_lpf: np.ndarray
    p_ac_actual: np.ndarray
    p_ac_target: np.ndarray
    s_aggregate: np.ndarray
    n_on: np.ndarray
    cycle_records: list[CycleRecord]
    gaps: list[int]
    comfort_violation_acl_min: float
    total_acl_min: float

    def metric_slice(self) -> slice:
        """Record rows inside the measured window (warm-up discarded)."""
        start = int(np.searchsorted(self.time_s, self.warmup_s))
        return slice(start, len(self.time_s))


RESULTS_CSV_HEADER = ("time_s,p_g,p_g0_reference,p_g_lpf,p_ac_actual,"
                      "p_ac_target,s_aggregate,n_on")

# summary.txt: these RunResult scalars by type, then the gap cycles
_SUMMARY_TYPES = {"controlled": bool, "record_cycle_s": int, "control_cycle_s": int,
                 "warmup_s": int, "total_rated_kw": float,
                 "comfort_violation_acl_min": float, "total_acl_min": float}


def write_results(fh: TextIO, r: RunResult) -> None:
    write_table(fh, RESULTS_CSV_HEADER,
                [getattr(r, name) for name in RESULTS_CSV_HEADER.split(",")])


def _check_finite(fleet: Fleet, cycle: int) -> None:
    if not (np.all(np.isfinite(fleet.t_air)) and np.all(np.isfinite(fleet.t_mass))):
        raise NumericAbortError(cycle)


def _tie_line_kw(fleet: Fleet, traces: TraceSet, idx: int) -> tuple[float, float]:
    """Metered fleet power and the tie-line power it implies at trace row idx."""
    fleet_kw = float(np.sum(fleet.rated_kw * fleet.on))
    return fleet_kw, fleet_kw + float(traces.p_load_kw[idx]) - float(traces.p_wind_kw[idx])


def run_scenario(cfg: ScenarioConfig, houses: Sequence[House], traces: TraceSet,
                 model: Optional[BaselineModel], controlled: bool = True,
                 bid_audit: Optional[list] = None) -> RunResult:
    """Execute one full run (controlled or free) over the given traces.

    When `bid_audit` is a list, every cleared cycle appends
    (k, bid batch, p_star, committed_power) so callers can audit the market.
    """
    if controlled and model is None:
        raise ValueError("a controlled run needs a baseline model")
    if traces.cadence_s != cfg.record_cycle_s:
        raise ValueError("trace cadence must equal the record cycle")
    if len(traces) * traces.cadence_s < cfg.total_s:
        raise ValueError("traces shorter than the requested run")

    fleet = build_fleet(houses, cfg.sim_step_s)
    seed_fleet_states(fleet, cfg.seed)
    mgcc_cfg = cfg.mgcc_config()
    total_rated = float(np.sum(fleet.rated_kw))
    baseline_scale = 1.0 + cfg.baseline_bias

    lpf = LpfState()
    corr = CorrectionState()
    records: list[CycleRecord] = []
    gaps: list[int] = []
    pending: Optional[tuple[BidBatch, float, float, float]] = None
    latest_p_g0 = float("nan")
    latest_lpf = float("nan")
    latest_target = float("nan")

    n_rows = cfg.total_s // cfg.record_cycle_s
    time_s = np.arange(n_rows, dtype=np.int64) * cfg.record_cycle_s
    col = lambda: np.full(n_rows, np.nan)
    p_g = col()
    p_g0_ref = col()
    p_g_lpf = col()
    p_ac_actual = col()
    p_ac_target = col()
    s_agg = col()
    n_on = np.zeros(n_rows, dtype=np.int64)

    comfort_viol_min = 0.0
    total_acl_min = 0.0
    step_minutes = cfg.sim_step_s / 60.0

    for t in range(0, cfg.total_s, cfg.sim_step_s):
        idx = t // traces.cadence_s
        t_out = float(traces.t_out_c[idx])
        solar = float(traces.solar_wm2[idx])

        if controlled and (t + cfg.bid_lead_s) % cfg.control_cycle_s == 0:
            _check_finite(fleet, (t + cfg.bid_lead_s) // cfg.control_cycle_s)
            soa = fleet_soa(fleet)
            fleet.soa_bid = soa
            # the batch outlives the bid lead (and the run, when audited), so
            # it holds its own copy of the bid-time on states
            bids = BidBatch(soa, fleet.rated_kw, fleet.on.copy(), np.arange(fleet.n))
            _, p_g_meas = _tie_line_kw(fleet, traces, idx)
            pending = (bids, p_g_meas, t_out, solar)

        if controlled and t > 0 and t % cfg.control_cycle_s == 0 and pending:
            k = t // cfg.control_cycle_s
            bids, p_g_meas, bid_t_out, bid_solar = pending
            pending = None
            p_star, rec, corr, lpf = run_control_cycle(
                k, bids, p_g_meas, bid_t_out, bid_solar, total_rated,
                model, corr, lpf, mgcc_cfg, baseline_scale)
            if rec is None:
                gaps.append(k)
            else:
                records.append(rec)
                latest_p_g0 = rec.p_g0
                latest_lpf = rec.p_g_lpf
                latest_target = rec.p_ac_target
                if bid_audit is not None:
                    bid_audit.append((k, bids, p_star, rec.committed_power))
            if p_star is not None:
                fleet.active_setpoint = np.where(
                    fleet.soa_bid > p_star,
                    fleet.t_min + fleet.epsilon,
                    fleet.t_max - fleet.epsilon)
            _check_finite(fleet, k)

        # thermostat acts on the state at t before power is metered
        _thermostat_slice(fleet)

        if t % cfg.record_cycle_s == 0:
            row = t // cfg.record_cycle_s
            p_ac_actual[row], p_g[row] = _tie_line_kw(fleet, traces, idx)
            p_g0_ref[row] = p_g[row] if not controlled else latest_p_g0
            p_g_lpf[row] = latest_lpf
            p_ac_target[row] = latest_target
            s_agg[row] = float(np.mean(fleet_soa(fleet))) if fleet.n else 0.0
            n_on[row] = int(np.count_nonzero(fleet.on))

        _advance_slice(fleet, t_out, solar)

        if t >= cfg.warmup_s:
            outside = int(np.count_nonzero(
                (fleet.t_air > fleet.t_max + 0.1)
                | (fleet.t_air < fleet.t_min - 0.1)))
            comfort_viol_min += outside * step_minutes
            total_acl_min += fleet.n * step_minutes

    _check_finite(fleet, cfg.total_s // cfg.control_cycle_s)

    return RunResult(
        controlled=controlled,
        record_cycle_s=cfg.record_cycle_s,
        control_cycle_s=cfg.control_cycle_s,
        warmup_s=cfg.warmup_s,
        total_rated_kw=total_rated,
        time_s=time_s, p_g=p_g, p_g0_reference=p_g0_ref, p_g_lpf=p_g_lpf,
        p_ac_actual=p_ac_actual, p_ac_target=p_ac_target,
        s_aggregate=s_agg, n_on=n_on,
        cycle_records=records, gaps=gaps,
        comfort_violation_acl_min=comfort_viol_min,
        total_acl_min=total_acl_min,
    )


def write_run_dir(outdir, result: RunResult) -> None:
    """Persist one run: record rows, cycle ledger and a scalar summary."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w") as fh:
        write_results(fh, result)
    with open(out / "cycles.csv", "w") as fh:
        write_cycle_records(fh, result.cycle_records)
    with open(out / "summary.txt", "w") as fh:
        write_keyvals(fh, {**{key: getattr(result, key) for key in _SUMMARY_TYPES},
                           "gaps": ",".join(map(fmt, result.gaps))})


def load_run_dir(rundir) -> RunResult:
    """Rebuild a RunResult from a run directory written by write_run_dir.

    Raises ValueError when a file is malformed, including a cycle row
    that breaks a `CycleRecord` identity.
    """
    run = Path(rundir)
    with open(run / "results.csv") as fh:
        cols = read_table(fh, RESULTS_CSV_HEADER, ints=("time_s", "n_on"))
    with open(run / "cycles.csv") as fh:
        records = read_cycle_records(fh)
    with open(run / "summary.txt") as fh:
        summary = read_keyvals(fh)
    if summary.keys() != {*_SUMMARY_TYPES, "gaps"}:
        raise ValueError(f"summary.txt holds the keys {sorted(summary)}, expected "
                         f"{sorted({*_SUMMARY_TYPES, 'gaps'})}")
    return RunResult(
        **{key: parse(summary[key], kind) for key, kind in _SUMMARY_TYPES.items()},
        **cols, cycle_records=records,
        gaps=[parse(g, int) for g in summary["gaps"].split(",") if g])


def run_training_simulation(cfg: ScenarioConfig, houses: Sequence[House],
                            day_traces: Sequence[TraceSet]) -> list[TrainingSample]:
    """Free runs over the training days, sampled per record cycle after warm-up.

    All devices hold their customer setpoints (no market).  Day d meters
    a deterministic enrollment prefix of the fleet (day 0 is the full
    fleet, later days a drawn fraction of it) so the rated-power
    regressors vary across the training set and the regression basis
    stays identifiable.  Houses step independently and initial states
    come from one stream, so a prefix run equals metering that prefix of
    a full-fleet run.
    """
    if not houses:
        raise ValueError("cannot train on an empty population")
    samples: list[TrainingSample] = []
    enroll_gen = rng.substream(cfg.seed, rng.ENROLLMENT_STREAM)

    for day, traces in enumerate(day_traces):
        if traces.cadence_s != cfg.record_cycle_s:
            raise ValueError("trace cadence must equal the record cycle")
        fraction = 1.0
        if cfg.vary_training_enrollment and day > 0:
            fraction = float(enroll_gen.uniform(0.7, 1.0))
        duration_s = len(traces) * traces.cadence_s - cfg.warmup_s
        if duration_s <= 0:
            continue
        n_enrolled = max(1, int(round(fraction * len(houses))))
        run = run_scenario(replace(cfg, duration_s=duration_s),
                           houses[:n_enrolled], traces, None, controlled=False)
        for row in range(run.metric_slice().start, len(run.time_s)):
            samples.append(TrainingSample(
                t_out=float(traces.t_out_c[row]),
                solar=float(traces.solar_wm2[row]),
                total_rated=run.total_rated_kw,
                p_ac_free=float(run.p_ac_actual[row])))
    return samples
