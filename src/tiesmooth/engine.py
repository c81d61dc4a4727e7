"""Discrete-time simulation harness and the fleet's control kernels.

Houses advance on the simulation step, records land on the record
cadence, and the market runs once per control cycle with bids collected
a fixed lead before the cycle boundary.  House state lives in flat
arrays and every per-house update is elementwise, so houses step
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

Two rules use a second CPU, and neither changes a byte, since power sums
are exact.  Training splits its days of one length into two shares of
whole days; when this process may run on two CPUs and the smaller share
holds `WORKER_MIN_HOUSES` houses or more, a worker steps that share as
the same segmented run.  The worker is a fresh interpreter (`_worker`):
not forked, because this process already runs a BLAS thread, nor a
`multiprocessing` child, whose resource tracker can outlive this process.
A run of `THREAD_MIN_HOUSES` houses or more that is not segmented steps
as two parts, views of two halves of the fleet, on two CPUs: a helper
thread steps one while this thread steps the other (`_stepper`), and
the market works between steps on the whole fleet.  Each part writes its
prices into one buffer that this thread adds up in one reduction.

Every array a kernel reads or writes starts on a 64-byte boundary,
where NumPy's SIMD loops run about twice as fast as on the 16-byte
boundaries `malloc` gives.  All of them come from
`population.aligned`: the population's columns, which the fleet shares
and never copies, are made there by `generate_population` and
`Population.take`; `build_fleet` makes the fleet's own arrays there and
`Workspace` its buffers and thresholds; and the kernels,
`seed_fleet_states` and `_respond_to_price` write into those arrays
rather than rebind them.  Only the bid prices are a fresh aligned array
at seeding and at each bid, since a bid batch keeps them.

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
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import rng
from .baseline import BaselineModel, CorrectionState, TrainingColumns
from .market import BidBatch
from .mgcc import (ContractError, CycleRecord, LpfState, read_cycle_records,
                   run_control_cycle, write_cycle_records)
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
    soa_bid: np.ndarray


def build_fleet(houses: Population, sim_step_s: float) -> Fleet:
    """The houses' columns as fleet columns, with each house's step matrices.

    The fleet shares the population's read-only columns; every array it
    adds starts on a 64-byte boundary."""
    c = houses.columns
    n = len(houses)
    t_set, t_high, t_low = c["t_set"], c["t_high"], c["t_low"]
    ((ad11, ad12), (ad21, ad22)), ((m1, _), (m2, _)) = discretize(
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
        active_setpoint=aligned(t_set), soa_bid=aligned(n))
    return fleet


def seed_fleet_states(fleet: Fleet, seed: int,
                      segments: Optional[Sequence[int]] = None) -> None:
    """Scatter initial air temperatures across the hysteresis bands, in
    the fleet's own arrays.

    A fleet of `segments` (sizes laid end to end) seeds each segment with
    the first draws of one stream, as if each were a fleet of its own.
    The bid prices start as fresh zeros, whose pages a run that never
    bids never touches.
    """
    sizes = [fleet.n] if segments is None else segments
    gen = rng.substream(seed, rng.INITIAL_STATE_STREAM)
    draws = gen.uniform(-1.0, 1.0, max(sizes))
    offsets = np.concatenate([draws[:size] for size in sizes]) * fleet.half_deadband
    np.add(fleet.t_set, offsets, out=fleet.t_air)
    fleet.t_mass[...] = fleet.t_air
    np.greater(fleet.t_air, fleet.t_set, out=fleet.on)
    fleet.active_setpoint[...] = fleet.t_set
    fleet.soa_bid = aligned(fleet.n)


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


def _respond_to_price(fleet: Fleet, ws: Workspace, p_star: float) -> None:
    """Setpoint response to the broadcast price, then fresh thresholds.

    Outbid devices (bid price <= p_star; ties too, as clearing commits
    only prices above p_star) drift off toward the upper limit, the rest
    are driven on toward the lower one.  epsilon keeps the override band
    inside the comfort limits until the next broadcast.
    """
    fleet.active_setpoint[...] = np.where(fleet.soa_bid > p_star,
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


def _step_part(kernels, fleet: Fleet, ws: Workspace, s_prices: Optional[np.ndarray],
               weather, meter, count_outside: bool):
    """One step of one part's houses through `kernels` (thermostat, advance,
    bid price), with the `weather` (segment, t_out, solar) that changed.
    Returns the part's power per segment from the `meter` starts, devices
    on and houses outside comfort; a metered part with `s_prices` also
    writes its prices there."""
    thermostat, advance, soa = kernels
    for houses, t_out, solar in weather:
        ws.set_weather(fleet, t_out, solar, houses)
    thermostat(fleet, ws)  # on the state at t, before power is metered
    kw = n_on = outside = 0
    if meter is not None:
        kw = np.add.reduceat(np.multiply(fleet.rated_kw, fleet.on, out=ws.y), meter)
        if s_prices is not None:
            n_on = np.count_nonzero(fleet.on)
            soa(fleet, ws, s_prices)
    advance(fleet, ws)
    if count_outside:
        outside = (np.count_nonzero(np.greater(fleet.t_air, ws.comfort_high, out=ws.mask))
                   + np.count_nonzero(np.less(fleet.t_air, ws.comfort_low, out=ws.mask)))
    return kw, n_on, outside


# What the helper thread calls, bound at import: a tracer that wraps this
# module's names for the calling thread assumes one thread.
_HELPER_CALLS = (_step_part, (_thermostat_slice, _advance_slice, fleet_soa))

# A run of at least this many houses steps as two parts, one on a helper
# thread, when this process may run on two CPUs.  Every NumPy call hands
# the GIL over, and below the crossover the handoffs cost more than the
# second CPU saves.  A free run 1 h after a 2 h warm-up on a 2-vCPU Xeon,
# median of 3 per size and side, one part -> two parts: n = 10 000:
# 0.24 -> 0.44 s; 20 000: 0.52 -> 0.54 s; 25 000: 0.66 -> 0.61 s;
# 30 000: 0.81 -> 0.68 s; 40 000: 1.15 -> 0.79 s; 50 000: 1.56 -> 0.95 s.
# On a busier host 30 000 also lost (1.06 -> 2.05 s); 40 000 never did.
THREAD_MIN_HOUSES = 40_000


def _part(obj, houses: slice):
    """A copy of a Fleet or Workspace whose arrays are views of `houses`."""
    part = copy.copy(obj)
    vars(part).update((name, value[houses]) for name, value in vars(obj).items()
                      if isinstance(value, np.ndarray))
    return part


@contextmanager
def _stepper(fleet: Fleet, ws: Workspace, s_prices: Optional[np.ndarray], split: int):
    """Yields `step(weather, meter, count_outside)`: every house stepped
    once, with `_step_part`'s result summed over the parts.  With a `split`, a
    multiple of 64 so that every part array starts on a cache line, a
    helper thread steps houses [split:] while this thread steps the rest;
    it is joined when the block ends, raise as it may."""
    kernels = (_thermostat_slice, _advance_slice, fleet_soa)  # as a tracer left them
    if not split:
        yield partial(_step_part, kernels, fleet, ws, s_prices)
        return
    import queue, threading  # here, so that importing the CLI does not pay for it
    here, there = ((_part(fleet, houses), _part(ws, houses), s_prices[houses])
                   for houses in (slice(None, split), slice(split, None)))
    here[0].n, there[0].n = split, fleet.n - split
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
    step, helper_kernels = _HELPER_CALLS
    errors = {**np.geterr(), "call": np.geterrcall()}  # a new thread starts without them

    def serve():
        with np.errstate(**errors):
            for job in iter(jobs.get, None):
                try:
                    done.put((True, step(helper_kernels, *there, *job)))
                except BaseException as exc:  # the caller re-raises it
                    done.put((False, exc))

    helper = threading.Thread(target=serve)
    helper.start()

    def step_parts(*job):
        jobs.put(job)
        ours = _step_part(kernels, *here, *job)
        ok, theirs = done.get()
        if not ok:
            raise theirs
        return [a + b for a, b in zip(ours, theirs)]  # power sums are exact in any order

    try:
        yield step_parts
    finally:
        jobs.put(None)
        helper.join()


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


def _tie_line_kw(fleet_kw: float, traces: TraceSet, idx: int) -> float:
    """The tie-line power that metered fleet power implies at trace row idx."""
    return fleet_kw + float(traces.p_load_kw[idx]) - float(traces.p_wind_kw[idx])


def run_scenario(cfg: ScenarioConfig, houses: Population, traces: TraceSet,
                 model: Optional[BaselineModel], controlled: bool = True, *,
                 _segments: Optional[Sequence[int]] = None) -> RunResult:
    """Execute one full run (controlled or free) over the given traces.

    A controlled run clears the market every control cycle after the
    first, on the bids collected `bid_lead_s` before it.  An unsegmented
    run of `THREAD_MIN_HOUSES` houses or more steps as two parts on two
    threads when this process may run on two CPUs (`_stepper`).

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

    fleet = build_fleet(houses, cfg.sim_step_s)
    seed_fleet_states(fleet, cfg.seed, _segments)
    ws = Workspace(fleet)
    total_rated = float(np.sum(fleet.rated_kw))
    agent_ids = np.arange(fleet.n) if controlled else None
    if _segments is None:
        starts, segments = np.zeros(1, np.intp), [slice(None)]
        s_prices = aligned(fleet.n)  # each record's prices, for s_aggregate
        split = fleet.n // 128 * 64 if fleet.n >= THREAD_MIN_HOUSES and _cpus() >= 2 else 0
    else:
        starts, s_prices, split = np.cumsum([0, *_segments[:-1]]), None, 0
        segments = [slice(start, start + size) for start, size in zip(starts.tolist(), _segments)]

    lpf = LpfState()
    corr = CorrectionState()
    records: list[CycleRecord] = []
    latest_p_g0 = float("nan")
    latest_lpf = float("nan")
    latest_target = float("nan")

    n_rows = cfg.total_s // cfg.record_cycle_s
    time_s = np.arange(n_rows, dtype=np.int64) * cfg.record_cycle_s
    col = lambda: np.full(n_rows, np.nan)
    p_g = col()
    p_g0_ref = col()
    p_g_lpf = col()
    p_ac_actual = np.full((n_rows, *traces.t_out_c.shape[1:]), np.nan)
    p_ac_target = col()
    s_agg = col()
    n_on = np.zeros(n_rows, dtype=np.int64)

    comfort_viol_min = 0.0
    total_acl_min = 0.0
    step_minutes = cfg.sim_step_s / 60.0
    weather_idx = -1
    t_outs = traces.t_out_c.reshape(len(traces), -1)  # a column per segment
    solars = traces.solar_wm2.reshape(len(traces), -1)

    with _stepper(fleet, ws, s_prices, split) as step:
        for t in range(0, cfg.total_s, cfg.sim_step_s):
            idx = t // traces.cadence_s
            weather = ()
            if idx != weather_idx:  # each segment takes its own day's weather
                weather_idx = idx
                weather = list(zip(segments, t_outs[idx].tolist(), solars[idx].tolist()))
                _, t_out, solar = weather[0]

            if controlled and (t + cfg.bid_lead_s) % cfg.control_cycle_s == 0:
                _check_finite(fleet, (t + cfg.bid_lead_s) // cfg.control_cycle_s)
                # the batch outlives the bid lead, so it holds its own copies of
                # the bid-time states
                fleet.soa_bid = fleet_soa(fleet, ws, aligned(fleet.n))
                bids = BidBatch(fleet.soa_bid, fleet.rated_kw, fleet.on.copy(), agent_ids)
                fleet_kw = float(np.add.reduce(np.multiply(fleet.rated_kw, fleet.on,
                                                           out=ws.y)))
                bid = (bids, _tie_line_kw(fleet_kw, traces, idx), t_out, solar)

            if controlled and t > 0 and t % cfg.control_cycle_s == 0:
                k = t // cfg.control_cycle_s
                bids, p_g_meas, bid_t_out, bid_solar = bid
                p_star, rec, corr, lpf = run_control_cycle(
                    k, bids, p_g_meas, bid_t_out, bid_solar, total_rated, model, corr, lpf,
                    cfg)
                records.append(rec)
                latest_p_g0, latest_lpf, latest_target = rec.p_g0, rec.p_g_lpf, rec.p_ac_target
                _respond_to_price(fleet, ws, p_star)
                _check_finite(fleet, k)

            record = t % cfg.record_cycle_s == 0
            counted = t >= cfg.warmup_s and _segments is None
            kw, on, outside = step(weather, starts if record else None, counted)

            if record:
                row = t // cfg.record_cycle_s
                if _segments is not None:
                    p_ac_actual[row] = kw
                else:
                    p_ac_actual[row] = fleet_kw = float(kw[0])
                    p_g[row] = _tie_line_kw(fleet_kw, traces, idx)
                    p_g0_ref[row] = p_g[row] if not controlled else latest_p_g0
                    p_g_lpf[row] = latest_lpf
                    p_ac_target[row] = latest_target
                    # np.mean's bits without its per-call overhead
                    s_agg[row] = float(np.add.reduce(s_prices)) / fleet.n
                    n_on[row] = on

            if counted:
                comfort_viol_min += int(outside) * step_minutes
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
    that breaks a `CycleRecord` identity.
    """
    run = Path(rundir)
    with open(run / "results.csv") as fh:
        cols = read_table(fh, RESULTS_CSV_HEADER, ints=("time_s", "n_on"))
    with open(run / "cycles.csv") as fh:
        records = read_cycle_records(fh)
    with open(run / "summary.txt") as fh:
        summary = read_keyvals(fh)
    if summary.keys() != _SUMMARY_TYPES.keys():
        raise ValueError(f"summary.txt holds the keys {sorted(summary)}, expected "
                         f"{sorted(_SUMMARY_TYPES)}")
    return RunResult(
        **{key: parse(summary[key], kind) for key, kind in _SUMMARY_TYPES.items()},
        **cols, cycle_records=records)


def check_run_cadence(run: RunResult) -> None:
    """Raise ValueError unless the records lie on the record grid from 0
    and the cycles k increase from 1 with k * control_cycle_s inside the
    run, so that windowed metrics span the time they claim."""
    step = run.record_cycle_s
    end_s = len(run.time_s) * step
    if not np.array_equal(run.time_s, np.arange(len(run.time_s)) * step):
        raise ValueError(f"record times are not the {step} s grid from 0 that the "
                         f"summary gives")
    ks = np.array([rec.k for rec in run.cycle_records], dtype=np.int64)
    if len(ks) and not (ks[0] >= 1 and np.all(np.diff(ks) > 0)
                        and ks[-1] * run.control_cycle_s < end_s):
        raise ValueError(f"cycles do not increase from 1 inside the {end_s} s run "
                         f"at {run.control_cycle_s} s a cycle")


# A worker steps the smaller share of a group's training days when that
# share holds at least this many houses.  A fresh interpreter takes
# 0.3-0.45 s to import NumPy and tiesmooth, and below the crossover the
# share it takes off this process saves less.  `tiesmooth train` of the
# default 3-day scenario (shares of n and about 1.7 n houses) on a 2-vCPU
# Xeon, median of 8 alternating runs without -> with the worker:
# n = 1 000: 1.28 -> 1.43 s; 2 000: 1.93 -> 1.71 s; 3 000: 1.94 -> 1.73 s.
WORKER_MIN_HOUSES = 2000

# The worker's main program.  It reads all of stdin before it imports
# anything more, so the parent's write never waits on NumPy's import, and
# takes the parent's sys.path before it unpickles what needs tiesmooth.
_WORKER_MAIN = """\
import io, pickle, sys
stdin = io.BytesIO(sys.stdin.buffer.read())
sys.path[:] = pickle.load(stdin)
fn, args = pickle.load(stdin)
try:
    result = True, fn(*args)
except Exception as exc:
    result = False, exc
sys.stdout.buffer.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
"""


@contextmanager
def _worker(fn, *args):
    """`fn(*args)` in a fresh interpreter while the block runs.

    Yields a function that waits for the worker and returns what `fn`
    returned, or raises what it raised.  If the block raises, the worker
    is killed; no worker outlives the block.
    """
    import subprocess  # here, so that importing the CLI does not pay for it
    flags = [f"-W{option}" for option in sys.warnoptions]
    with subprocess.Popen([sys.executable, *flags, "-c", _WORKER_MAIN],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            # a worker gone before it read its inputs reports no result below
            with suppress(BrokenPipeError):
                proc.stdin.write(pickle.dumps(sys.path)
                                 + pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
                proc.stdin.close()
            yield lambda: _worker_result(proc)
        except BaseException:
            proc.kill()
            proc.wait()
            raise


def _worker_result(proc):
    data = proc.stdout.read()  # to EOF before the wait, so a large result cannot stall it
    if proc.wait() != 0 or not data:
        raise RuntimeError(f"the training worker exited with status {proc.returncode} "
                           f"and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _shares(group: Sequence[int], sizes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The days in `group` split into two shares: each day in turn, from
    the most houses, joins the share holding fewer.  Returns (larger
    share, smaller share), each in day order."""
    shares, totals = ([], []), [0, 0]
    for i in sorted(group, key=lambda i: -sizes[i]):
        share = int(totals[1] < totals[0])
        shares[share].append(i)
        totals[share] += sizes[i]
    larger = int(totals[1] > totals[0])
    return sorted(shares[larger]), sorted(shares[1 - larger])


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
    each segment steps bit for bit like a run of its own.  Those days
    are split into two shares of whole days; when this process may run
    on two CPUs and the smaller share holds `WORKER_MIN_HOUSES` houses or
    more, a worker process steps it while this one steps the other.
    Samples come back in day order.
    """
    if not houses:
        raise ValueError("cannot train on an empty population")
    enroll_gen = rng.substream(cfg.seed, rng.ENROLLMENT_STREAM)
    days: list[tuple[TraceSet, int]] = []
    for day, traces in enumerate(day_traces):
        if traces.cadence_s != cfg.record_cycle_s:
            raise ValueError("trace cadence must equal the record cycle")
        fraction = float(enroll_gen.uniform(0.7, 1.0)) if day > 0 else 1.0
        if len(traces) * traces.cadence_s <= cfg.warmup_s:
            continue
        days.append((traces, max(1, int(round(fraction * len(houses))))))

    sizes = [n for _, n in days]
    p_ac: dict[int, np.ndarray] = {}
    for length in dict.fromkeys(len(traces) for traces, _ in days):
        group = [i for i, (traces, _) in enumerate(days) if len(traces) == length]
        here, there = _shares(group, sizes)
        if not (sum(sizes[i] for i in there) >= WORKER_MIN_HOUSES and _cpus() >= 2):
            here, there = group, []
        with (_worker(_step_days, cfg, houses, [days[i] for i in there])
              if there else nullcontext()) as result:
            p_ac.update(zip(here, _step_days(cfg, houses, [days[i] for i in here]).T))
            if there:
                p_ac.update(zip(there, result().T))
    rated = houses.columns["rated_power"]
    columns = []
    for i, (traces, n) in enumerate(days):
        rows = slice(cfg.warmup_s // cfg.record_cycle_s, len(traces))
        columns.append((traces.t_out_c[rows], traces.solar_wm2[rows],
                        np.full(len(p_ac[i]), float(np.sum(rated[:n]))), p_ac[i]))
    # the empty tail keeps the columns well-typed when every day was too short
    return TrainingColumns(*(np.concatenate([c[k] for c in columns] + [np.empty(0)])
                             for k in range(4)))
