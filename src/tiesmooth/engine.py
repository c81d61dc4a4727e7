"""Discrete-time simulation harness and the fleet's control kernels.

Houses advance on the simulation step and records land on the record
cadence.  The market runs once per control cycle: it clears as soon as
the bids are collected, `bid_lead_s` before the cycle boundary, and the
devices respond to its price at the boundary.  House state lives in
flat arrays and every per-house update is elementwise, so houses step
independently of one another.

The device controller and the thermal stepper exist only here, as
kernels over the whole fleet: `fleet_soa`, `_respond_to_price`,
`_thermostat_slice` and `_advance_slice`.

One step loop serves every run, and it allocates nothing per step: the
kernels write into a `Workspace` of n-sized buffers made once per run.
Work that changes more slowly than the step is done when it changes:
the thermostat thresholds, with the comfort guards folded in, when the
market moves the setpoints; the weather's heat input once per trace
row; the comfort bounds once per run.  `build_fleet` takes the
population's columns as they are and discretizes the whole fleet in
one array call.  Training reuses the loop: its days are segments of one
fleet laid end to end along the house axis, each segment's heat input
set from its own day's weather and each record metering every segment
on its own.

One rule uses a second CPU when this process may run on two, and it
changes no byte.  A free run, training's segmented runs included, whose
houses [n2:] number `FORK_MIN_HOUSES` or more, with n2 = n // 2 less
its remainder mod 8, forks once its fleet is built (`_forked`), on
Linux and only while no other Python thread runs.  The child steps the
houses [n2:] from the first step to the end (`_step_tail`) and this
process steps [:n2].  Each side keeps raw sums (`_Sums`): each record's
power per segment, devices on and `np.add.reduce` of its bid prices,
each step's houses outside comfort.  Power sums are exact, counts are
integers, and NumPy's pairwise sum splits a row of more than 128 prices
exactly at n2, so the sums add to the one-process sums bit for bit; the
floats are finished once, after the loop, in step order.  A controlled
run needs the whole fleet at every control cycle, so it steps every
house in this process.

Every array a kernel reads or writes starts on a 64-byte boundary,
where NumPy's SIMD loops run about twice as fast as on the 16-byte
boundaries `malloc` gives.  All of them come from
`population.aligned`: the population's columns, which the fleet shares
and never copies, are made there by `generate_population` and
`Population.take`; `build_fleet` makes the fleet's own arrays there and
`Workspace` its buffers and thresholds; and the kernels,
`seed_fleet_states` and `_respond_to_price` write into those arrays
rather than rebind them.  Only the bid prices are a fresh aligned array
at each bid, since the bid batch keeps them until the broadcast.  A
forked child steps its houses where they lie: n2 is a multiple of 8, so
its half of each float array starts on a 64-byte boundary too.

The tie-line power at any instant is fleet electrical power plus
uncontrollable load minus wind (lossless balance).  Device ratings and
trace powers are dyadic multiples of the power quantum, which makes that
identity — and the coordinator's net-load estimate — exact in floating
point, not just close.  The same exactness lets a segment's power be
summed in any order.
"""

from __future__ import annotations

import copy
import os
import pickle
import sys
import threading
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import rng
from .baseline import BaselineModel, CorrectionState, TrainingColumns
from .domains import check
from .market import BidBatch, sequential_sum
from .mgcc import (ContractError, CycleRecord, read_cycle_records, run_control_cycle,
                   write_cycle_records)
from .population import Population, aligned
from .scenario import ScenarioConfig
from .textio import parse, read_keyvals, read_table, write_keyvals, write_table
from .thermal import discretize
from .traces import TraceSet


class NumericAbortError(RuntimeError):
    """A house state went non-finite; carries the control cycle index."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        super().__init__(f"non-finite house state at control cycle {cycle}")

    def __reduce__(self):  # rebuilt from the cycle, not from the message
        return type(self), (self.cycle,)


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
    t_air: np.ndarray
    t_mass: np.ndarray
    on: np.ndarray
    active_setpoint: np.ndarray


def build_fleet(houses: Population, sim_step_s: float) -> Fleet:
    """The houses' columns as fleet columns, with each house's step matrices.

    The fleet shares the population's read-only columns; every array it
    adds starts on a 64-byte boundary."""
    c = houses.columns
    n = len(houses)
    t_set, t_high, t_low = c["t_set"], c["t_high"], c["t_low"]
    ((ad11, ad12), (ad21, ad22)), (m1, m2) = discretize(
        c["ua_envelope"], c["h_mass"], c["c_air"], c["c_mass"], float(sim_step_s))
    fleet = Fleet(
        n=n, rated_kw=c["rated_power"], t_set=t_set,
        half_deadband=np.divide(c["deadband"], 2.0, out=aligned(n)),
        t_min=np.subtract(t_set, t_low, out=aligned(n)),
        t_max=np.add(t_set, t_high, out=aligned(n)),
        epsilon=c["epsilon"], t_high=t_high, t_low=t_low,
        ad11=aligned(ad11), ad12=aligned(ad12), ad21=aligned(ad21), ad22=aligned(ad22),
        m1=aligned(m1), m2=aligned(m2),
        ua=c["ua_envelope"], aperture=c["solar_aperture"], cap_w=c["cooling_capacity"],
        c_air=c["c_air"],
        t_air=aligned(t_set), t_mass=aligned(t_set), on=aligned(n, bool),
        active_setpoint=aligned(t_set))
    return fleet


def seed_fleet_states(fleet: Fleet, seed: int,
                      segments: Optional[Sequence[int]] = None) -> None:
    """Scatter initial air temperatures across the hysteresis bands, in
    the fleet's own arrays.

    A fleet of `segments` (sizes laid end to end) seeds each segment with
    the first draws of one stream, as if each were a fleet of its own.
    """
    sizes = [fleet.n] if segments is None else segments
    # uniforms on [-1, 1) as lo + (hi - lo) * u
    draws = -1.0 + 2.0 * rng.stream_uniforms(seed, rng.INITIAL_STATE_STREAM, max(sizes))
    offsets = np.concatenate([draws[:size] for size in sizes]) * fleet.half_deadband
    np.add(fleet.t_set, offsets, out=fleet.t_air)
    fleet.t_mass[...] = fleet.t_air
    np.greater(fleet.t_air, fleet.t_set, out=fleet.on)
    fleet.active_setpoint[...] = fleet.t_set


class Workspace:
    """The n-sized buffers one run steps in, so a step allocates nothing.

    `on_above` and `off_below` are the thermostat thresholds with the
    comfort guards folded in: call `set_thresholds` whenever
    `fleet.active_setpoint` changes.  `forcing` is the weather's heat
    input ua * t_out + aperture * solar: call `set_weather` whenever the
    weather changes.  `x`, `y`, `b0` and `mask` are scratch for the
    kernels.
    """

    def __init__(self, fleet: Fleet):
        n = fleet.n
        self.on_above, self.off_below, self.forcing, self.b0, self.x, self.y = (
            aligned(n) for _ in range(6))
        self.mask = aligned(n, bool)
        self.comfort_high = np.add(fleet.t_max, 0.1, out=aligned(n))
        self.comfort_low = np.subtract(fleet.t_min, 0.1, out=aligned(n))
        # the largest double below t_max and the smallest above t_min: for
        # any t, t > below_t_max exactly when t >= t_max
        self.below_t_max = np.nextafter(fleet.t_max, -np.inf, out=aligned(n))
        self.above_t_min = np.nextafter(fleet.t_min, np.inf, out=aligned(n))
        self.set_thresholds(fleet)

    def set_thresholds(self, fleet: Fleet) -> None:
        """on_above = min(sp + h, t_max⁻), off_below = max(sp - h, t_min⁺).

        With these, "on above on_above, off below off_below" is the
        hysteresis followed by the comfort guards, NaN included, as long
        as every band starts below its upper limit (sp - h < t_max);
        otherwise a house above t_max and below sp - h would be forced
        on by the guard yet turned off by the fused rule, so that raises
        ContractError.
        """
        sp, h = fleet.active_setpoint, fleet.half_deadband
        np.subtract(sp, h, out=self.off_below)
        if not np.all(np.less(self.off_below, fleet.t_max, out=self.mask)):
            raise ContractError("a hysteresis band starts at or above its upper "
                                "comfort limit (setpoint - deadband/2 >= t_max)")
        np.maximum(self.off_below, self.above_t_min, out=self.off_below)
        np.add(sp, h, out=self.on_above)
        np.minimum(self.on_above, self.below_t_max, out=self.on_above)

    def set_weather(self, fleet: Fleet, t_out: float, solar: float,
                    segment: slice = slice(None)) -> None:
        """The weather's heat input of the houses in `segment`, all by default."""
        forcing, y = self.forcing[segment], self.y[segment]
        np.multiply(fleet.ua[segment], t_out, out=forcing)
        np.add(forcing, np.multiply(fleet.aperture[segment], solar, out=y), out=forcing)


def fleet_soa(fleet: Fleet, ws: Workspace, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Normalized temperature states, the bid prices, in `out` (`ws.x` by
    default).

    0 at the customer setpoint, +1 / -1 at the upper / lower comfort
    limit, linear on each side and clipped to [-1, 1].  Measured against
    the customer setpoint, never the override, so the price stays honest.
    The side is chosen without a mask: the lower side's share clipped to
    [-1, 0] plus the upper side's clipped to [0, 1], one of which is 0.
    """
    dev = np.subtract(fleet.t_air, fleet.t_set, out=ws.x if out is None else out)
    low = np.divide(dev, fleet.t_low, out=ws.y)
    np.maximum(low, -1.0, out=low)
    np.minimum(low, 0.0, out=low)
    high = np.divide(dev, fleet.t_high, out=dev)
    np.minimum(high, 1.0, out=high)
    np.maximum(high, 0.0, out=high)
    return np.add(high, low, out=high)


def _respond_to_price(fleet: Fleet, ws: Workspace, price: np.ndarray,
                      p_star: float) -> None:
    """Setpoint response to the broadcast price of the bids at `price`,
    then fresh thresholds.

    Outbid devices (bid price <= p_star; ties too, as clearing commits
    only prices above p_star) drift off toward the upper limit, the rest
    are driven on toward the lower one.  epsilon keeps the override band
    inside the comfort limits until the next broadcast.
    """
    fleet.active_setpoint[...] = np.where(price > p_star,
                                          fleet.t_min + fleet.epsilon,
                                          fleet.t_max - fleet.epsilon)
    ws.set_thresholds(fleet)


def _thermostat_slice(fleet: Fleet, ws: Workspace) -> None:
    """Hysteresis around the active setpoint, then the comfort guards, in place.

    On above setpoint + deadband/2, off below setpoint - deadband/2.  The
    guards come last so comfort beats the market: at or past the upper
    limit a compressor is forced on, at or past the lower limit off.
    Both are folded into the thresholds by `Workspace.set_thresholds`.
    """
    t, on, m = fleet.t_air, fleet.on, ws.mask
    np.logical_or(on, np.greater(t, ws.on_above, out=m), out=on)
    np.greater(on, np.less(t, ws.off_below, out=m), out=on)  # on and not m


def _advance_slice(fleet: Fleet, ws: Workspace) -> None:
    """One exact-discretization step of both thermal nodes, in place,
    under the weather of the last `ws.set_weather`."""
    b0, x, y = ws.b0, ws.x, ws.y
    np.subtract(ws.forcing, np.multiply(fleet.cap_w, fleet.on, out=y), out=b0)
    np.divide(b0, fleet.c_air, out=b0)
    np.multiply(fleet.ad12, fleet.t_mass, out=x)  # t_air's mass term, before t_mass moves
    t_mass = np.multiply(fleet.ad22, fleet.t_mass, out=fleet.t_mass)
    np.add(t_mass, np.multiply(fleet.ad21, fleet.t_air, out=y), out=t_mass)
    np.add(t_mass, np.multiply(fleet.m2, b0, out=y), out=t_mass)
    t_air = np.multiply(fleet.ad11, fleet.t_air, out=fleet.t_air)
    np.add(t_air, x, out=t_air)
    np.add(t_air, np.multiply(fleet.m1, b0, out=y), out=t_air)


def _part(obj, houses: slice):
    """A copy of a Fleet or Workspace whose arrays are views of `houses`."""
    part = copy.copy(obj)
    vars(part).update((name, value[houses]) for name, value in vars(obj).items()
                      if isinstance(value, np.ndarray))
    return part


@dataclass
class _Houses:
    """The houses one process steps: a fleet or part of one, its
    workspace, its segments as slices of it, where each segment's
    metering starts, each segment's weather (a column per segment, a row
    per trace row) and whether it meters the states: in a run that is
    not segmented, each record's devices on and bid prices (in `ws.x`)
    and each step's houses outside comfort."""

    fleet: Fleet
    ws: Workspace
    segments: list
    starts: np.ndarray
    t_outs: np.ndarray
    solars: np.ndarray
    meters_states: bool

    def split(self, n2: int) -> tuple["_Houses", "_Houses"]:
        """Houses [:n2] and [n2:], views of these; a segment across n2 is
        in both."""
        first = int(np.searchsorted(self.starts, n2))  # segments that start before n2
        across = int(np.searchsorted(self.starts, n2, "right")) - 1  # the one n2 is in
        head = _Houses(_part(self.fleet, slice(None, n2)), _part(self.ws, slice(None, n2)),
                       self.segments[:first], self.starts[:first],
                       self.t_outs[:, :first], self.solars[:, :first], self.meters_states)
        tail = _Houses(_part(self.fleet, slice(n2, None)),
                       _part(self.ws, slice(n2, None)),
                       [slice(max(s.start - n2, 0), s.stop - n2)
                        for s in self.segments[across:]],
                       np.maximum(self.starts[across:] - n2, 0),
                       self.t_outs[:, across:], self.solars[:, across:], self.meters_states)
        head.fleet.n, tail.fleet.n = n2, self.fleet.n - n2
        return head, tail


class _Sums:
    """What one process meters of its houses, as raw sums that add exactly
    across processes: at each record the power of each of its segments
    (`kw`, the first segments of a row for the head of a fleet, the last
    for its tail), and in a run that is not segmented its devices on
    (`n_on`) and the `np.add.reduce` of its bid prices (`s`); at each
    step after warm-up, its houses outside comfort (`outside`)."""

    def __init__(self, cfg: ScenarioConfig, n_segments: int):
        n_rows = cfg.total_s // cfg.record_cycle_s
        self.kw = np.zeros((n_rows, n_segments))
        self.n_on = np.zeros(n_rows, np.int64)
        self.s = np.zeros(n_rows)
        self.outside = np.zeros(cfg.total_s // cfg.sim_step_s, np.int64)

    def add(self, other: "_Sums") -> None:
        """Adds `other`'s sums, those of the houses after these."""
        self.kw[:, self.kw.shape[1] - other.kw.shape[1]:] += other.kw
        self.n_on += other.n_on
        self.s += other.s  # np.add.reduce splits a row of prices where n2 does
        self.outside += other.outside


def _step(houses: _Houses, cfg: ScenarioConfig, t: int, sums: _Sums) -> None:
    """Steps `houses` once at time t and tallies what it meters in `sums`.
    A record row is also a trace row, so the weather changes only there.
    The kernels are looked up by their module names, where a tracer may
    wrap them."""
    fleet, ws = houses.fleet, houses.ws
    row, offset = divmod(t, cfg.record_cycle_s)
    record = offset == 0
    if record:
        for segment, t_out, solar in zip(houses.segments, houses.t_outs[row].tolist(),
                                         houses.solars[row].tolist()):
            ws.set_weather(fleet, t_out, solar, segment)
    _thermostat_slice(fleet, ws)  # on the state at t, before power is metered
    if record:
        kw = np.add.reduceat(np.multiply(fleet.rated_kw, fleet.on, out=ws.y), houses.starts)
        sums.kw[row, :len(kw)] = kw
        if houses.meters_states:
            sums.n_on[row] = np.count_nonzero(fleet.on)
            sums.s[row] = np.add.reduce(fleet_soa(fleet, ws))
    _advance_slice(fleet, ws)
    if houses.meters_states and t >= cfg.warmup_s:
        sums.outside[t // cfg.sim_step_s] = (
            np.count_nonzero(np.greater(fleet.t_air, ws.comfort_high, out=ws.mask))
            + np.count_nonzero(np.less(fleet.t_air, ws.comfort_low, out=ws.mask)))


def _step_tail(houses: _Houses, cfg: ScenarioConfig) -> _Sums:
    """A forked child's share of a free run: steps `houses` from the
    first step to the end.  Returns their sums."""
    sums = _Sums(cfg, houses.t_outs.shape[1])
    for t in range(0, cfg.total_s, cfg.sim_step_s):
        _step(houses, cfg, t, sums)
    _check_finite(houses.fleet, cfg.total_s // cfg.control_cycle_s)
    return sums


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
    comfort_violation_acl_min: float
    total_acl_min: float

    def metric_slice(self) -> slice:
        """Record rows inside the measured window (warm-up discarded)."""
        start = int(np.searchsorted(self.time_s, self.warmup_s))
        return slice(start, len(self.time_s))


RESULTS_CSV_HEADER = ("time_s,p_g,p_g0_reference,p_g_lpf,p_ac_actual,"
                      "p_ac_target,s_aggregate,n_on")

# summary.txt: these RunResult scalars by type
_SUMMARY_TYPES = {"controlled": bool, "record_cycle_s": int, "control_cycle_s": int,
                 "warmup_s": int, "total_rated_kw": float,
                 "comfort_violation_acl_min": float, "total_acl_min": float}


def write_results(fh: TextIO, r: RunResult) -> None:
    write_table(fh, RESULTS_CSV_HEADER,
                [getattr(r, name) for name in RESULTS_CSV_HEADER.split(",")])


def _check_finite(fleet: Fleet, cycle: int) -> None:
    if not (np.all(np.isfinite(fleet.t_air)) and np.all(np.isfinite(fleet.t_mass))):
        raise NumericAbortError(cycle)


def run_scenario(cfg: ScenarioConfig, houses: Population, traces: TraceSet,
                 model: Optional[BaselineModel], controlled: bool = True, *,
                 _segments: Optional[Sequence[int]] = None) -> RunResult:
    """Execute one full run (controlled or free) over the given traces.

    A controlled run clears the market for every control cycle after the
    first as soon as it collects the bids, `bid_lead_s` before the cycle
    starts, and the devices respond to the price at the start.  Every
    house steps in this process, except that, on Linux when this process
    may run on two CPUs and no other Python thread runs, a free run whose
    houses [n2:] number `FORK_MIN_HOUSES` or more forks a child that
    steps them from the first step to the end (`_forked`).  The child
    runs under the caller's NumPy error state and warning filters; the
    warnings it records are issued here, and what it raises is raised
    here with its type.

    `_segments` runs training's free fleets at once: the houses are
    segments of these sizes laid end to end, every `traces` series holds
    one column per segment, and each record meters every segment into a
    row of `p_ac_actual`.  Nothing else is recorded.
    """
    if not houses:
        raise ValueError("cannot run an empty population")
    if controlled and model is None:
        raise ValueError("a controlled run needs a baseline model")
    if traces.cadence_s != cfg.record_cycle_s:
        raise ValueError("trace cadence must equal the record cycle")
    if len(traces) * traces.cadence_s < cfg.total_s:
        raise ValueError("traces shorter than the requested run")

    corr = CorrectionState()
    records: list[CycleRecord] = []

    n_rows = cfg.total_s // cfg.record_cycle_s
    col = lambda: np.full(n_rows, np.nan)

    fleet = build_fleet(houses, cfg.sim_step_s)
    seed_fleet_states(fleet, cfg.seed, _segments)
    ws = Workspace(fleet)
    total_rated = sequential_sum(fleet.rated_kw)
    sizes = [fleet.n] if _segments is None else list(_segments)
    starts = np.cumsum([0, *sizes[:-1]])
    ours = _Houses(fleet, ws, [slice(start, start + size)
                               for start, size in zip(starts.tolist(), sizes)], starts,
                   traces.t_out_c.reshape(len(traces), -1),  # a column per segment
                   traces.solar_wm2.reshape(len(traces), -1),
                   _segments is None)
    sums = _Sums(cfg, len(sizes))
    n2 = fleet.n // 2 - fleet.n // 2 % 8  # where np.add.reduce splits a row of prices
    # a fork with another thread running may deadlock, and a child's error
    # callback would act on the child's copies
    fork = (not controlled and fleet.n - n2 >= FORK_MIN_HOUSES and _cpus() >= 2
            and threading.active_count() == 1 and np.geterrcall() is None)
    with _forked(ours, n2, cfg) if fork else nullcontext((ours, None)) as (ours, child):
        for t in range(0, cfg.total_s, cfg.sim_step_s):
            k, early = divmod(t + cfg.bid_lead_s, cfg.control_cycle_s)
            if controlled and early == 0 and k * cfg.control_cycle_s < cfg.total_s:
                _check_finite(fleet, k)
                # the batch keeps the prices until the broadcast, and its own
                # copy of the bid-time on states
                bids = BidBatch(fleet_soa(fleet, ws, aligned(fleet.n)), fleet.rated_kw,
                                fleet.on.copy())
                idx = t // traces.cadence_s
                tie_kw = (float(np.add.reduce(np.multiply(fleet.rated_kw, fleet.on, out=ws.y)))
                          + float(traces.p_load_kw[idx]) - float(traces.p_wind_kw[idx]))
                p_star, rec, corr = run_control_cycle(
                    k, bids, tie_kw, float(traces.t_out_c[idx]), float(traces.solar_wm2[idx]),
                    total_rated, model, corr, records[-1].p_g_lpf if records else None, cfg)
                records.append(rec)
            if controlled and t > 0 and t % cfg.control_cycle_s == 0:
                _respond_to_price(fleet, ws, bids.price, p_star)
                _check_finite(fleet, t // cfg.control_cycle_s)
            _step(ours, cfg, t, sums)

        if child is not None:
            sums.add(child())
    _check_finite(ours.fleet, cfg.total_s // cfg.control_cycle_s)

    # the sums are finished in step order, as one process would
    p_ac_actual = sums.kw.reshape(n_rows, *traces.t_out_c.shape[1:])
    p_g = col()
    s_agg = col()
    comfort_viol_min = 0.0
    total_acl_min = 0.0
    if _segments is None:
        p_g = p_ac_actual + traces.p_load_kw[:n_rows] - traces.p_wind_kw[:n_rows]
        s_agg = sums.s / fleet.n
        step_minutes = cfg.sim_step_s / 60.0
        for outside in sums.outside[cfg.warmup_s // cfg.sim_step_s:].tolist():
            comfort_viol_min += outside * step_minutes
            total_acl_min += fleet.n * step_minutes
    time_s = np.arange(n_rows, dtype=np.int64) * cfg.record_cycle_s
    if controlled:  # each record holds the last cycle cleared at or before it
        last = np.searchsorted(np.array([rec.k for rec in records], dtype=np.int64)
                               * cfg.control_cycle_s, time_s, "right")
        p_g0_ref, p_g_lpf, p_ac_target = (
            np.array([np.nan] + [getattr(rec, name) for rec in records])[last]
            for name in ("p_g0", "p_g_lpf", "p_ac_target"))
    else:
        p_g0_ref, p_g_lpf, p_ac_target = p_g.copy(), col(), col()

    return RunResult(
        controlled=controlled,
        record_cycle_s=cfg.record_cycle_s,
        control_cycle_s=cfg.control_cycle_s,
        warmup_s=cfg.warmup_s,
        total_rated_kw=total_rated,
        time_s=time_s,
        p_g=p_g, p_g0_reference=p_g0_ref, p_g_lpf=p_g_lpf,
        p_ac_actual=p_ac_actual, p_ac_target=p_ac_target,
        s_aggregate=s_agg, n_on=sums.n_on,
        cycle_records=records,
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
        write_keyvals(fh, {key: getattr(result, key) for key in _SUMMARY_TYPES})


def load_run_dir(rundir) -> RunResult:
    """Rebuild a RunResult from a run directory written by write_run_dir.

    Raises ValueError when a file is malformed, including a cycle row
    that breaks a `CycleRecord` identity and a power or price series
    that is not finite.
    """
    run = Path(rundir)
    with open(run / "results.csv") as fh:
        cols = read_table(fh, RESULTS_CSV_HEADER, ints=("time_s", "n_on"))
    with open(run / "cycles.csv") as fh:
        records = read_cycle_records(fh)
    with open(run / "summary.txt") as fh:
        summary = read_keyvals(fh)
    for name in ("p_g", "p_ac_actual", "s_aggregate"):  # the others are NaN before a cycle
        if not np.all(np.isfinite(cols[name])):
            raise ValueError(f"results.csv holds a {name} that is not finite")
    if summary.keys() != _SUMMARY_TYPES.keys():
        raise ValueError(f"summary.txt holds the keys {sorted(summary)}, expected "
                         f"{sorted(_SUMMARY_TYPES)}")
    return RunResult(
        **{key: parse(summary[key], kind) for key, kind in _SUMMARY_TYPES.items()},
        **cols, cycle_records=records)


def check_run_cadence(run: RunResult) -> None:
    """Raise ValueError unless the records lie on a positive record grid
    from 0 and the cycles k increase from 1 with k * control_cycle_s
    inside the run, so that windowed metrics span the time they claim."""
    step = run.record_cycle_s
    check({"record_cycle_s": step})
    end_s = len(run.time_s) * step
    if not np.array_equal(run.time_s, np.arange(len(run.time_s)) * step):
        raise ValueError(f"record times are not the {step} s grid from 0 that the "
                         f"summary gives")
    ks = np.array([rec.k for rec in run.cycle_records], dtype=np.int64)
    if len(ks) and not (ks[0] >= 1 and np.all(np.diff(ks) > 0)
                        and ks[-1] * run.control_cycle_s < end_s):
        raise ValueError(f"cycles do not increase from 1 inside the {end_s} s run "
                         f"at {run.control_cycle_s} s a cycle")


# A free run forks a child for its houses [n2:] when they number at
# least this many.  Below the crossover the fork loses: the two halves
# step slower side by side than either alone, and halving a small fleet
# saves little, since each of a step's ufunc calls costs about 1 us
# whatever its length.  Free runs of the default scenario on a 2-vCPU
# Xeon, seed 42, median of 7 alternating runs, one process -> forked:
# 26 h: n = 2 000: 1.19 -> 1.28 s; 2 500: 1.30 -> 1.30 s; 3 500: 1.28 ->
# 1.32 s; 4 000: 1.53 -> 1.43 s; 5 000: 1.71 -> 1.53 s.  6 h (2 h
# warm-up + 4 h): 3 500: 0.32 -> 0.34 s; 4 000: 0.34 -> 0.35 s; 4 500:
# 0.38 -> 0.36 s; 5 000: 0.40 -> 0.36 s.  The floor forks from
# n = 4 500, above both crossovers.
FORK_MIN_HOUSES = 2250


@contextmanager
def _forked(houses: _Houses, n2: int, cfg: ScenarioConfig):
    """Forks a child that steps houses [n2:] of `houses` (`_step_tail`),
    and yields houses [:n2] with a function that waits for the child,
    issues here the warnings it recorded, and returns its sums or raises
    what it raised.

    The child holds the arrays where this process holds them, and leaves
    only through `os._exit`, so it runs none of this process's exit
    handlers and flushes none of its buffers.  It records its warnings
    under the caller's filters, and each is issued again here, by its
    category, text and place, under this process's filters.  A child not
    yet waited for when the block ends, raise as it may, is killed; none
    outlives the block."""
    import signal  # here, so that importing the CLI does not pay for it
    head, tail = houses.split(n2)
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe, open(write_end, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with warnings.catch_warnings(record=True) as caught:
                    try:
                        result = True, _step_tail(tail, cfg)
                    except Exception as exc:  # raised again in the parent
                        result = False, exc
                warned = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
                pickle.dump((*result, warned), sink, pickle.HIGHEST_PROTOCOL)
                sink.flush()
                status = 0
            finally:
                os._exit(status)
        sink.close()  # the child's copy alone keeps the pipe open
        reaped = False

        def result() -> _Sums:
            nonlocal reaped
            data = pipe.read()  # to EOF before the wait: a large result cannot stall
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            if status != 0 or not data:
                raise RuntimeError(f"the child exited with status {status} and no result")
            ok, value, caught = pickle.loads(data)
            for category, text, filename, lineno in caught:
                warnings.warn_explicit(text, category, filename, lineno)
            if not ok:
                raise value
            return value

        try:
            yield head, result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cpus() -> int:
    """The CPUs this process may run on, on Linux; 1 elsewhere, where no
    run forks."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _step_days(cfg: ScenarioConfig, houses: Population,
               days: Sequence[tuple[TraceSet, int]]) -> np.ndarray:
    """Free power of each of `days`, (traces, houses enrolled) of one trace
    length, at each record after warm-up: one column per day, all stepped
    as segments of one fleet."""
    sizes = [n for _, n in days]
    stacked = TraceSet(
        time_s=days[0][0].time_s, cadence_s=cfg.record_cycle_s,
        **{name: np.stack([getattr(traces, name) for traces, _ in days], axis=1)
           for name in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw")})
    prefixes = houses.take(np.concatenate([np.arange(n) for n in sizes]))
    run = run_scenario(replace(cfg, duration_s=len(stacked) * cfg.record_cycle_s - cfg.warmup_s),
                       prefixes, stacked, None, controlled=False, _segments=sizes)
    return run.p_ac_actual[run.metric_slice()]


def run_training_simulation(cfg: ScenarioConfig, houses: Population,
                            day_traces: Sequence[TraceSet]) -> TrainingColumns:
    """Free runs over the training days, sampled per record cycle after warm-up.

    All devices hold their customer setpoints (no market).  Day d meters
    a deterministic enrollment prefix of the fleet (day 0 is the full
    fleet, later days a drawn fraction of it) so the rated-power
    regressors vary across the training set and the regression basis
    stays identifiable.  Houses step independently and initial states
    come from one stream, so the days of one trace length run as one
    fleet of prefixes, each segment under its own day's weather, and
    each segment steps bit for bit like a run of its own; that run may
    fork, as any free run may (`run_scenario`).
    Samples come back in day order.
    """
    if not houses:
        raise ValueError("cannot train on an empty population")
    # day d >= 1 enrolls by output d - 1 of its stream
    fractions = [1.0] + (0.7 + (1.0 - 0.7) * rng.stream_uniforms(
        cfg.seed, rng.ENROLLMENT_STREAM, max(len(day_traces) - 1, 0))).tolist()
    days: list[tuple[TraceSet, int]] = []
    for traces, fraction in zip(day_traces, fractions):
        if traces.cadence_s != cfg.record_cycle_s:
            raise ValueError("trace cadence must equal the record cycle")
        if len(traces) * traces.cadence_s <= cfg.warmup_s:
            continue
        days.append((traces, max(1, int(round(fraction * len(houses))))))

    p_ac: dict[int, np.ndarray] = {}
    for length in dict.fromkeys(len(traces) for traces, _ in days):
        group = [i for i, (traces, _) in enumerate(days) if len(traces) == length]
        p_ac.update(zip(group, _step_days(cfg, houses, [days[i] for i in group]).T))
    rated = houses.columns["rated_power"]
    columns = []
    for i, (traces, n) in enumerate(days):
        rows = slice(cfg.warmup_s // cfg.record_cycle_s, len(traces))
        columns.append((traces.t_out_c[rows], traces.solar_wm2[rows],
                        np.full(len(p_ac[i]), sequential_sum(rated[:n])), p_ac[i]))
    # the empty tail keeps the columns well-typed when every day was too short
    return TrainingColumns(*(np.concatenate([c[k] for c in columns] + [np.empty(0)])
                             for k in range(4)))
