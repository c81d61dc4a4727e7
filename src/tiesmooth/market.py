"""Virtual market: demand-curve aggregation, clearing and net-load estimation.

Each control cycle the coordinator collects one bid per device and
clears a uniform-price, descending-price step curve against the target
aggregated power.  The broadcast clearing price is the only downlink
signal: devices whose bid price exceeds it run, the rest drift off.  For
that contract to hold, equal-price bids are treated atomically (no price
can split them), so the committed prefix is always reproducible from the
price alone.

A cycle's bids travel as one `BidBatch` of parallel arrays, and the
curve is built column-wise: bids sorted by descending price with ties
by agent id, a running prefix sum of quantity along that order, and the
equal-price group ends read off where the sorted price changes.  The
sort is one `np.argsort`, NumPy's unstable quicksort, which runs a SIMD
kernel chosen by CPU feature; each kernel leaves equal prices in its
own order.  So the bids inside each group of equal prices are then put
in agent-id order, duplicate ids in input order (a tie repair): one
sort of those bids alone, on an integer that packs each one's group,
agent id and input row (ids too far apart to pack fall back to a
two-key lexsort).  That makes the order, and every byte of the curve,
the same on every CPU.  0.0 and -0.0 compare equal and share a group,
so the sorted prices are gathered after the repair: a group's price is
that of its lowest agent id.  Clearing is one binary search of the target among
the group ends plus the nearer-prefix rule.  The prefix sums add left
to right, exactly as a running `acc += q` loop does, so every sum is
the same bits on any Python and NumPy; device ratings are multiples of
2**-10 kW, which makes those sums exact besides.

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
    """One cycle's bids as four parallel arrays, one row per device: all a
    device tells the coordinator, and no comfort setting."""

    price: np.ndarray     # float, normalized temperature states in [-1, 1]
    quantity: np.ndarray  # float, kW
    on_state: np.ndarray  # bool
    agent_id: np.ndarray  # int

    def __post_init__(self):
        for name, dtype in (("price", float), ("quantity", float),
                            ("on_state", bool), ("agent_id", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.price)
        if any(a.shape != (n,) for a in (self.quantity, self.on_state, self.agent_id)):
            raise ValueError("bid columns must be one-dimensional and of equal length")
        bad = ~(self.quantity > 0)
        if bad.any():
            raise ValueError(f"bid quantity must be positive, got {self.quantity[bad][0]}")
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
    """Bid prices sorted descending (ties by agent id) with the running
    cumulative quantity in that order.

    `group_price` / `group_end` collapse each run of equal prices to the
    price of its first step and the cumulative quantity at its last.
    """

    price: np.ndarray
    cumulative: np.ndarray
    group_price: np.ndarray
    group_end: np.ndarray

    @property
    def total_quantity(self) -> float:
        return float(self.cumulative[-1])


@dataclass(frozen=True)
class ClearingOutcome:
    p_star: float          # broadcast price
    committed_power: float  # kW over bids with price > p_star
    kind: ClearingKind


def build_demand_curve(batch: BidBatch) -> DemandCurve:
    """Sort bids price-descending (ties by agent id) and accumulate quantity."""
    if not batch:
        raise EmptyMarketError("cannot build a demand curve from zero bids")
    order = np.argsort(-batch.price)  # unstable: equal prices in any order
    price = batch.price[order]
    start = np.ones(len(price) + 1, dtype=bool)  # where each equal-price group starts
    np.not_equal(price[1:], price[:-1], out=start[1:-1])
    first = last = slice(None)  # every group one bid
    if not start.all():  # order each group of several bids by agent id
        tied = np.flatnonzero(~(start[:-1] & start[1:]))
        rows = order[tied]
        ids = batch.agent_id[rows]
        low = int(ids.min())
        id_bits = (int(ids.max()) - low).bit_length()
        row_bits = (len(price) - 1).bit_length()
        group = np.cumsum(start[tied], dtype=np.int64)  # numbered from 1 along the curve
        if int(group[-1]).bit_length() + id_bits + row_bits <= 63:
            # one sort of (group, id, input row) packed in an integer: duplicate
            # ids keep input order, as in a stable sort
            key = (group << (id_bits + row_bits)) | ((ids - low) << row_bits) | rows
            order[tied] = np.sort(key) & ((1 << row_bits) - 1)
        else:  # ids too far apart to pack: the same order from two keys
            rows = np.sort(rows)
            order[tied] = rows[np.lexsort((batch.agent_id[rows], -batch.price[rows]))]
        price = batch.price[order]  # 0.0 and -0.0 share a group: gather again
        cut = np.flatnonzero(start)
        first, last = cut[:-1], cut[1:] - 1
    cumulative = np.cumsum(batch.quantity[order])
    return DemandCurve(price=price, cumulative=cumulative,
                       group_price=price[first], group_end=cumulative[last])


def clear_market(curve: DemandCurve, target: float) -> ClearingOutcome:
    """Clear the curve against a target power.

    Saturated targets return sentinel outcomes.  A target exactly on a
    group boundary commits that prefix; a target inside a group commits
    whichever bracketing prefix lands closer (ties include the group).
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

    ends = curve.group_end
    g = int(np.searchsorted(ends, target))  # first group ending at or past the target
    prev_end = float(ends[g - 1]) if g else 0.0
    j = g + 1 if float(ends[g]) - target <= target - prev_end else g

    committed = float(ends[j - 1]) if j else 0.0
    p_hi = float(curve.group_price[j - 1]) if j else SENTINEL_ALL_OFF
    p_lo = float(curve.group_price[j]) if j < len(ends) else SENTINEL_ALL_ON
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

