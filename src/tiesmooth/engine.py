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

from dataclasses import dataclass, replace
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


def fleet_soa(fleet: Fleet, ws: Workspace) -> np.ndarray:
    """Normalized temperature states, the bid prices, in `ws.x`.

    0 at the customer setpoint, +1 / -1 at the upper / lower comfort
    limit, linear on each side and clipped to [-1, 1].  Measured against
    the customer setpoint, never the override, so the price stays honest.
    The side is chosen without a mask: the lower side's share clipped to
    [-1, 0] plus the upper side's clipped to [0, 1], one of which is 0.
    """
    dev = np.subtract(fleet.t_air, fleet.t_set, out=ws.x)
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


def _tie_line_kw(fleet: Fleet, ws: Workspace, traces: TraceSet,
                 idx: int) -> tuple[float, float]:
    """Metered fleet power and the tie-line power it implies at trace row idx."""
    kw = np.multiply(fleet.rated_kw, fleet.on, out=ws.y)
    fleet_kw = float(np.add.reduce(kw))  # np.sum without its wrapper
    return fleet_kw, fleet_kw + float(traces.p_load_kw[idx]) - float(traces.p_wind_kw[idx])


def run_scenario(cfg: ScenarioConfig, houses: Population, traces: TraceSet,
                 model: Optional[BaselineModel], controlled: bool = True, *,
                 _segments: Optional[Sequence[int]] = None) -> RunResult:
    """Execute one full run (controlled or free) over the given traces.

    A controlled run clears the market every control cycle after the
    first, on the bids collected `bid_lead_s` before it.

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
    agent_ids = np.arange(fleet.n)
    if _segments is not None:
        starts = np.cumsum([0, *_segments[:-1]])
        segment_slices = [slice(start, start + size)
                          for start, size in zip(starts.tolist(), _segments)]

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

    for t in range(0, cfg.total_s, cfg.sim_step_s):
        idx = t // traces.cadence_s
        if idx != weather_idx:
            weather_idx = idx
            if _segments is None:
                t_out = float(traces.t_out_c[idx])
                solar = float(traces.solar_wm2[idx])
                ws.set_weather(fleet, t_out, solar)
            else:  # each segment takes its own day's weather
                for segment, t_out, solar in zip(segment_slices, traces.t_out_c[idx].tolist(),
                                                 traces.solar_wm2[idx].tolist()):
                    ws.set_weather(fleet, t_out, solar, segment)

        if controlled and (t + cfg.bid_lead_s) % cfg.control_cycle_s == 0:
            _check_finite(fleet, (t + cfg.bid_lead_s) // cfg.control_cycle_s)
            # the batch outlives the bid lead, so it holds its own copies of
            # the bid-time states
            fleet.soa_bid = aligned(fleet_soa(fleet, ws))
            bids = BidBatch(fleet.soa_bid, fleet.rated_kw, fleet.on.copy(), agent_ids)
            _, p_g_meas = _tie_line_kw(fleet, ws, traces, idx)
            bid = (bids, p_g_meas, t_out, solar)

        if controlled and t > 0 and t % cfg.control_cycle_s == 0:
            k = t // cfg.control_cycle_s
            bids, p_g_meas, bid_t_out, bid_solar = bid
            p_star, rec, corr, lpf = run_control_cycle(
                k, bids, p_g_meas, bid_t_out, bid_solar, total_rated, model, corr, lpf, cfg)
            records.append(rec)
            latest_p_g0, latest_lpf, latest_target = rec.p_g0, rec.p_g_lpf, rec.p_ac_target
            _respond_to_price(fleet, ws, p_star)
            _check_finite(fleet, k)

        # thermostat acts on the state at t before power is metered
        _thermostat_slice(fleet, ws)

        if t % cfg.record_cycle_s == 0:
            row = t // cfg.record_cycle_s
            if _segments is not None:
                kw = np.multiply(fleet.rated_kw, fleet.on, out=ws.y)
                p_ac_actual[row] = np.add.reduceat(kw, starts)
            else:
                p_ac_actual[row], p_g[row] = _tie_line_kw(fleet, ws, traces, idx)
                p_g0_ref[row] = p_g[row] if not controlled else latest_p_g0
                p_g_lpf[row] = latest_lpf
                p_ac_target[row] = latest_target
                # np.mean's bits without its per-call overhead
                s_sum = float(np.add.reduce(fleet_soa(fleet, ws)))
                s_agg[row] = s_sum / fleet.n
                n_on[row] = int(np.count_nonzero(fleet.on))

        _advance_slice(fleet, ws)

        if t >= cfg.warmup_s and _segments is None:
            outside = (np.count_nonzero(np.greater(fleet.t_air, ws.comfort_high, out=ws.mask))
                       + np.count_nonzero(np.less(fleet.t_air, ws.comfort_low, out=ws.mask)))
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
    each segment steps bit for bit like a run of its own.  Samples come
    back in day order.
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

    rated = houses.columns["rated_power"]
    columns: list = [None] * len(days)
    for length in dict.fromkeys(len(traces) for traces, _ in days):
        group = [i for i, (traces, _) in enumerate(days) if len(traces) == length]
        sizes = [days[i][1] for i in group]
        stacked = TraceSet(
            time_s=days[group[0]][0].time_s, cadence_s=cfg.record_cycle_s,
            **{name: np.stack([getattr(days[i][0], name) for i in group], axis=1)
               for name in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw")})
        prefixes = houses.take(np.concatenate([np.arange(n) for n in sizes]))
        run = run_scenario(replace(cfg, duration_s=length * cfg.record_cycle_s - cfg.warmup_s),
                           prefixes, stacked, None, controlled=False, _segments=sizes)
        rows = run.metric_slice()
        for segment, i in enumerate(group):
            traces, n = days[i]
            p_ac = run.p_ac_actual[rows, segment]
            columns[i] = (traces.t_out_c[rows], traces.solar_wm2[rows],
                          np.full(len(p_ac), float(np.sum(rated[:n]))), p_ac)
    # the empty tail keeps the columns well-typed when every day was too short
    return TrainingColumns(*(np.concatenate([c[k] for c in columns] + [np.empty(0)])
                             for k in range(4)))
