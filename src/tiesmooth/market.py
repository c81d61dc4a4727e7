"""Virtual market: demand-curve aggregation, clearing and net-load estimation.

Each control cycle the coordinator collects one bid per device and
clears a uniform-price, descending-price step curve against the target
aggregated power.  The broadcast clearing price is the only downlink
signal: devices whose bid price exceeds it run, the rest drift off.  For
that contract to hold, equal-price bids are treated atomically (no price
can split them), so the committed prefix is always reproducible from the
price alone.

A cycle's bids travel as one `BidBatch` of parallel arrays; a bid is
its price, quantity and on state, and carries no identity.  Clearing
depends only on the distinct prices and the quantity at each, so the
curve holds price levels: the distinct prices descending, each level's
quantity summed in bid order, and the running sum of those totals.  Its
bytes do not depend on the sort kernel NumPy picks for the CPU, nor, as
device ratings are multiples of 2**-10 kW and so sum exactly, on the
bids' order; 0.0 and -0.0 form one level, priced +0.0.  Clearing is one
binary search of the target among the level ends plus the nearer-prefix
rule.

Prices are normalized temperature states in [-1, 1]; the sentinel
prices +2 / -2 sit outside that range and encode "everyone off" /
"everyone on".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

SENTINEL_ALL_OFF = 2.0
SENTINEL_ALL_ON = -2.0


class EmptyMarketError(ValueError):
    """No bids were submitted to the cycle."""


class ClearingKind(Enum):
    NORMAL = "normal"
    ALL_ON = "all_on"
    ALL_OFF = "all_off"


@dataclass(frozen=True, eq=False)
class BidBatch:
    """One cycle's bids as three parallel arrays, one row per device: all a
    device tells the coordinator, and no comfort setting."""

    price: np.ndarray     # float, normalized temperature states in [-1, 1]
    quantity: np.ndarray  # float, kW
    on_state: np.ndarray  # bool

    def __post_init__(self):
        for name, dtype in (("price", float), ("quantity", float), ("on_state", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.price)
        if any(a.shape != (n,) for a in (self.quantity, self.on_state)):
            raise ValueError("bid columns must be one-dimensional and of equal length")
        with np.errstate(over="ignore"):  # summed only when positive, so it can only overflow
            if not ((self.quantity > 0).all() and np.add.reduce(self.quantity) < np.inf):
                raise ValueError("bid quantities must be positive with a finite sum, got "
                                 f"min {self.quantity.min()} and max {self.quantity.max()}")
        bad = ~((self.price >= -1.0) & (self.price <= 1.0))
        if bad.any():
            raise ValueError(f"bid price must be in [-1, 1], got {self.price[bad][0]}")

    def __len__(self) -> int:
        return len(self.price)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum from +0.0, bit for bit a running `acc += v` loop.

    `np.sum` adds pairwise and Python >= 3.12's `sum()` compensates, so
    either would make results depend on the library or interpreter.
    """
    return 0.0 + float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True, eq=False)
class DemandCurve:
    """The distinct bid prices, descending, with the running sum of each
    price level's quantity from the top level down."""

    price: np.ndarray
    cumulative: np.ndarray

    @property
    def total_quantity(self) -> float:
        return float(self.cumulative[-1])


@dataclass(frozen=True)
class ClearingOutcome:
    p_star: float          # broadcast price
    committed_power: float  # kW over bids with price > p_star
    kind: ClearingKind


def build_demand_curve(batch: BidBatch) -> DemandCurve:
    """Sum each price level's quantity in bid order and accumulate the
    levels price-descending."""
    if not batch:
        raise EmptyMarketError("cannot build a demand curve from zero bids")
    levels, level = np.unique(-batch.price, return_inverse=True)
    quantity = np.bincount(level, weights=batch.quantity, minlength=len(levels))
    return DemandCurve(price=0.0 - levels, cumulative=np.cumsum(quantity))  # +0.0 for +-0


def clear_market(curve: DemandCurve, target: float) -> ClearingOutcome:
    """Clear the curve against a target power.

    Saturated targets return sentinel outcomes.  A target exactly on a
    level's end commits that prefix; a target inside a level commits
    whichever bracketing prefix lands closer (ties include the level).
    The price is the midpoint of the prices across the chosen boundary,
    with virtual prices +2 above the top of the curve and -2 below the
    bottom; when those two are adjacent doubles the midpoint rounds onto
    the upper one, so the lower one is broadcast instead.
    """
    total = curve.total_quantity
    if target <= 0.0:
        return ClearingOutcome(SENTINEL_ALL_OFF, 0.0, ClearingKind.ALL_OFF)
    if target >= total:
        return ClearingOutcome(SENTINEL_ALL_ON, total, ClearingKind.ALL_ON)

    ends = curve.cumulative
    g = int(np.searchsorted(ends, target))  # first level ending at or past the target
    prev_end = float(ends[g - 1]) if g else 0.0
    j = g + 1 if float(ends[g]) - target <= target - prev_end else g

    committed = float(ends[j - 1]) if j else 0.0
    p_hi = float(curve.price[j - 1]) if j else SENTINEL_ALL_OFF
    p_lo = float(curve.price[j]) if j < len(ends) else SENTINEL_ALL_ON
    p_star = 0.5 * (p_hi + p_lo)
    if p_star >= p_hi:  # adjacent doubles: the midpoint rounded onto p_hi
        p_star = p_lo
    return ClearingOutcome(p_star, committed, ClearingKind.NORMAL)


def committed_power_at_price(curve: DemandCurve, p_star: float) -> float:
    """Power that the broadcast price alone turns on (price strictly above)."""
    count = int(np.count_nonzero(curve.price > p_star))
    return float(curve.cumulative[count - 1]) if count else 0.0


def estimate_net_load(p_g_measured: float, batch: BidBatch) -> float:
    """Non-device net load seen on the tie line.

    Subtracting the running devices' bid quantities from the one metered
    tie-line reading leaves uncontrollable load minus generation; no
    other feeder metering is required.  May be negative; passed through.
    """
    return p_g_measured - sequential_sum(batch.quantity[batch.on_state])

