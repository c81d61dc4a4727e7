"""Virtual market: demand-curve aggregation, clearing and net-load estimation.

Each control cycle the coordinator collects one bid per device and
clears a uniform-price, descending-price step curve against the target
aggregated power.  The broadcast clearing price is the only downlink
signal: devices whose bid price exceeds it run, the rest drift off.  For
that contract to hold, equal-price bids are treated atomically (no price
can split them), so the committed prefix is always reproducible from the
price alone.

A cycle's bids travel as one `BidBatch` of parallel arrays, and the
curve is built column-wise: one two-key sort by descending price with
ties by agent id, a running prefix sum of quantity along that order,
and the equal-price group ends read off where the sorted price
changes.  Clearing is one binary search of the target among the group
ends plus the nearer-prefix rule.  The prefix sums add left to right,
exactly as a running `acc += q` loop does, so every sum is the same
bits on any Python and NumPy; device ratings are multiples of
2**-10 kW, which makes those sums exact besides.

Bid prices are normalized temperature states in [-1, 1]; the sentinel
prices +2 / -2 sit outside that range and encode "everyone off" /
"everyone on".  `Bid` is the row type of a batch, used by the audit CSV
and wherever single messages are handled.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

SENTINEL_ALL_OFF = 2.0
SENTINEL_ALL_ON = -2.0


class EmptyMarketError(ValueError):
    """No bids were submitted to the cycle."""


class ClearingKind(Enum):
    NORMAL = "normal"
    ALL_ON = "all_on"
    ALL_OFF = "all_off"


@dataclass(frozen=True)
class Bid:
    """One device's market message: three scalars plus an opaque id."""

    price: float      # normalized temperature state in [-1, 1]
    quantity: float   # kW, the device's rated electrical power
    on_state: bool    # running at the time of bidding
    agent_id: int = 0

    def __post_init__(self):
        if self.quantity <= 0:
            raise ValueError(f"bid quantity must be positive, got {self.quantity}")
        if not -1.0 <= self.price <= 1.0:
            raise ValueError(f"bid price must be in [-1, 1], got {self.price}")


@dataclass(frozen=True, eq=False)
class BidBatch:
    """One cycle's bids as four parallel arrays; iterates as `Bid` rows."""

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

    @classmethod
    def of(cls, bids: Iterable[Bid]) -> "BidBatch":
        """The batch itself, or the columns of a sequence of `Bid` rows."""
        if isinstance(bids, cls):
            return bids
        rows = list(bids)
        return cls(price=[b.price for b in rows], quantity=[b.quantity for b in rows],
                   on_state=[b.on_state for b in rows], agent_id=[b.agent_id for b in rows])

    def __len__(self) -> int:
        return len(self.price)

    def __iter__(self) -> Iterator[Bid]:
        for p, q, on, a in zip(self.price.tolist(), self.quantity.tolist(),
                               self.on_state.tolist(), self.agent_id.tolist()):
            yield Bid(price=p, quantity=q, on_state=on, agent_id=a)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum from +0.0, bit for bit a running `acc += v` loop.

    `np.sum` adds pairwise and Python >= 3.12's `sum()` compensates, so
    either would make results depend on the library or interpreter.
    """
    return 0.0 + float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True, eq=False)
class DemandCurve:
    """Bids sorted by descending price with running cumulative quantity.

    `group_price` / `group_end` collapse each run of equal prices to the
    price of its first step and the cumulative quantity at its last.
    """

    steps: BidBatch
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


def build_demand_curve(bids: Iterable[Bid]) -> DemandCurve:
    """Sort bids price-descending (ties by agent id) and accumulate quantity."""
    batch = BidBatch.of(bids)
    if not batch:
        raise EmptyMarketError("cannot build a demand curve from zero bids")
    order = np.lexsort((batch.agent_id, -batch.price))
    steps = BidBatch(batch.price[order], batch.quantity[order],
                     batch.on_state[order], batch.agent_id[order])
    cumulative = np.cumsum(steps.quantity)
    last = np.flatnonzero(np.append(steps.price[1:] != steps.price[:-1], True))
    first = np.append(0, last[:-1] + 1)
    return DemandCurve(steps=steps, cumulative=cumulative,
                       group_price=steps.price[first], group_end=cumulative[last])


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
    count = int(np.count_nonzero(curve.steps.price > p_star))
    return float(curve.cumulative[count - 1]) if count else 0.0


def estimate_net_load(p_g_measured: float, bids: Iterable[Bid]) -> float:
    """Non-device net load seen on the tie line.

    Subtracting the running devices' bid quantities from the one metered
    tie-line reading leaves uncontrollable load minus generation; no
    other feeder metering is required.  May be negative; passed through.
    """
    batch = BidBatch.of(bids)
    return p_g_measured - sequential_sum(batch.quantity[batch.on_state])


# --- audit-log serialization -------------------------------------------------

BID_CSV_HEADER = "agent_id,price,quantity,on_state"


def bids_to_csv(bids: Sequence[Bid]) -> str:
    lines = [BID_CSV_HEADER]
    for b in bids:
        lines.append(f"{b.agent_id},{b.price!r},{b.quantity!r},{int(b.on_state)}")
    return "\n".join(lines) + "\n"


def bids_from_csv(text: str) -> list[Bid]:
    buf = io.StringIO(text)
    header = buf.readline().strip()
    if header != BID_CSV_HEADER:
        raise ValueError(f"unexpected bid CSV header: {header!r}")
    out = []
    for line in buf:
        line = line.strip()
        if not line:
            continue
        agent_id, price, quantity, on_state = line.split(",")
        out.append(Bid(price=float(price), quantity=float(quantity),
                       on_state=bool(int(on_state)), agent_id=int(agent_id)))
    return out
