"""Coordinator control loop: filter target, aggregate state, market cycle.

Once per control cycle the coordinator

  1. estimates the net uncontrollable load from the single tie-line
     measurement and the collected bids,
  2. averages the bid prices into the fleet temperature state S,
  3. predicts the fleet baseline from weather and corrects it with S,
  4. reconstructs the free tie-line power, low-pass filters it, and
     turns the difference into the fleet's target aggregated power,
  5. clears the virtual market against that target and broadcasts the
     clearing price.

The low-pass filter is the discrete first-order recursion
p[k] = alpha * p[k-1] + (1 - alpha) * u[k] with alpha = tau/(tau + dt);
its DC gain is exactly one, so constant inputs pass untouched and only
the fast fluctuation ends up in the fleet adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

from .baseline import BaselineModel, CorrectionState, correct_baseline, predict_baseline
from .market import (BidBatch, ClearingKind, build_demand_curve, clear_market,
                     committed_power_at_price, estimate_net_load, sequential_sum)
from .scenario import ScenarioConfig
from .textio import read_table, write_table


class ContractError(AssertionError):
    """An exact identity of the control cycle does not hold.

    Raised explicitly rather than by `assert`, so `python -O` keeps the
    checks.
    """


def lpf_alpha(cfg: ScenarioConfig) -> float:
    """The filter's memory weight per control cycle, tau / (tau + dt)."""
    return cfg.tau_s / (cfg.tau_s + cfg.control_cycle_s)


@dataclass(frozen=True)
class LpfState:
    p_g_lpf_prev: float = 0.0
    initialized: bool = False


def lpf_step(state: LpfState, p_g0: float, cfg: ScenarioConfig) -> tuple[float, LpfState]:
    """Advance the filter one cycle; the first sample seeds the memory.

    Evaluated in increment form (prev + (1-alpha) * (input - prev)), the
    same recursion but with constant inputs exact fixed points in
    floating point, not just approximate ones.
    """
    if not state.initialized:
        return p_g0, LpfState(p_g_lpf_prev=p_g0, initialized=True)
    out = state.p_g_lpf_prev + (1.0 - lpf_alpha(cfg)) * (p_g0 - state.p_g_lpf_prev)
    return out, LpfState(p_g_lpf_prev=out, initialized=True)


def compute_aggregate_soa(bids: BidBatch) -> float:
    """Mean bid price = mean normalized temperature state of the fleet.

    The prices are added left to right, so S is the same bits on every
    Python and NumPy version.
    """
    if not bids:
        raise ValueError("cannot aggregate zero bids")
    return sequential_sum(bids.price) / len(bids)


def compute_target_power(p_base: float, net_load: float, lpf: LpfState,
                         cfg: ScenarioConfig) -> tuple[float, float, float, LpfState]:
    """Fleet target power for one cycle.

    Reconstructs the free tie-line power as baseline + net load, filters
    it, and rides the (filtered - free) difference on top of the
    baseline.  The target is clamped at zero: the fleet cannot absorb a
    request for negative aggregate power (the market's all-off sentinel
    covers the shortfall).
    """
    p_g0 = p_base + net_load
    p_g_lpf, lpf_next = lpf_step(lpf, p_g0, cfg)
    delta = p_g_lpf - p_g0
    p_ac_target = max(0.0, p_base + delta)
    return p_ac_target, p_g0, p_g_lpf, lpf_next


@dataclass(frozen=True)
class CycleRecord:
    """Full ledger of one control cycle."""

    k: int
    p_g_measured: float
    net_load: float
    p_base0: float
    p_base: float
    p_g0: float
    p_g_lpf: float
    delta_p_ac: float
    p_ac_target: float
    s_aggregate: float
    p_star: float
    committed_power: float

    def __post_init__(self):
        if self.p_g0 != self.p_base + self.net_load:
            raise ContractError(f"cycle {self.k}: p_g0 {self.p_g0!r} is not "
                                f"p_base + net_load")
        if self.p_ac_target != max(0.0, self.p_base + self.delta_p_ac):
            raise ContractError(f"cycle {self.k}: p_ac_target {self.p_ac_target!r} "
                                f"is not max(0, p_base + delta_p_ac)")
        if not -1.0 <= self.s_aggregate <= 1.0:
            raise ContractError(f"cycle {self.k}: s_aggregate {self.s_aggregate!r} "
                                f"outside [-1, 1]")


def run_control_cycle(
    k: int,
    bids: BidBatch,
    p_g_measured: float,
    t_out: float,
    solar: float,
    total_rated: float,
    model: BaselineModel,
    corr_state: CorrectionState,
    lpf_state: LpfState,
    cfg: ScenarioConfig,
) -> tuple[float, CycleRecord, CorrectionState, LpfState]:
    """One bid -> clear -> broadcast cycle.

    Returns (broadcast price, record, correction state, filter state).
    The raw prediction is scaled by 1 + `cfg.baseline_bias` (deliberate
    error injection for robustness experiments).
    """
    net_load = estimate_net_load(p_g_measured, bids)
    s_aggregate = compute_aggregate_soa(bids)

    p_base0 = predict_baseline(model, t_out, solar, total_rated) * (1.0 + cfg.baseline_bias)
    if cfg.soa_feedback_enabled:
        p_base, corr_next = correct_baseline(p_base0, s_aggregate, corr_state,
                                             cfg.correction)
    else:
        p_base, corr_next = p_base0, corr_state

    p_ac_target, p_g0, p_g_lpf, lpf_next = compute_target_power(
        p_base, net_load, lpf_state, cfg)

    curve = build_demand_curve(bids)
    outcome = clear_market(curve, p_ac_target)
    if outcome.kind is ClearingKind.NORMAL:
        # the broadcast price alone must reproduce the committed power
        verified = committed_power_at_price(curve, outcome.p_star)
        if verified != outcome.committed_power:
            raise ContractError(
                f"cycle {k}: broadcast price {outcome.p_star!r} turns on "
                f"{verified!r} kW, the clearing committed {outcome.committed_power!r} kW")

    record = CycleRecord(
        k=k,
        p_g_measured=p_g_measured,
        net_load=net_load,
        p_base0=p_base0,
        p_base=p_base,
        p_g0=p_g0,
        p_g_lpf=p_g_lpf,
        delta_p_ac=p_g_lpf - p_g0,
        p_ac_target=p_ac_target,
        s_aggregate=s_aggregate,
        p_star=outcome.p_star,
        committed_power=outcome.committed_power,
    )
    return outcome.p_star, record, corr_next, lpf_next


CYCLE_CSV_HEADER = ("k,p_g_measured,net_load,p_base0,p_base,p_g0,p_g_lpf,"
                    "p_ac_target,s_aggregate,p_star,committed_power")


def write_cycle_records(fh: TextIO, records: Sequence[CycleRecord]) -> None:
    write_table(fh, CYCLE_CSV_HEADER,
                [[getattr(r, name) for r in records] for name in CYCLE_CSV_HEADER.split(",")])


def read_cycle_records(fh: TextIO) -> list[CycleRecord]:
    """Rebuild the ledger; a row that breaks a record identity is a ValueError."""
    cols = read_table(fh, CYCLE_CSV_HEADER, ints=("k",))
    rows = (dict(zip(cols, values)) for values in zip(*(c.tolist() for c in cols.values())))
    try:
        return [CycleRecord(**row, delta_p_ac=row["p_g_lpf"] - row["p_g0"]) for row in rows]
    except ContractError as exc:
        raise ValueError(f"malformed cycle ledger: {exc}") from None


def lpf_sinusoid_gain(cfg: ScenarioConfig, period_s: float) -> float:
    """Analytic steady-state amplitude gain of the discrete filter for a
    sampled sinusoid of the given period."""
    a = lpf_alpha(cfg)
    omega = 2.0 * math.pi / period_s
    z = complex(math.cos(omega * cfg.control_cycle_s),
                -math.sin(omega * cfg.control_cycle_s))
    return abs((1.0 - a) / (1.0 - a * z))
