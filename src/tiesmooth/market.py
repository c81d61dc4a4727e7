"""Virtual market: demand-curve aggregation, clearing and net-load estimation.

Each control cycle the coordinator collects one bid per device, sorts
them into a descending-price step curve and clears it against the target
aggregated power.  The broadcast clearing price is the only downlink
signal: devices whose bid price exceeds it run, the rest drift off.  For
that contract to hold, equal-price bids are treated atomically (no price
can split them), so the committed prefix is always reproducible from the
price alone.

Bid prices are normalized temperature states in [-1, 1]; the sentinel
prices +2 / -2 sit outside that range and encode "everyone off" /
"everyone on".
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class DemandCurve:
    """Bids sorted by descending price with running cumulative quantity."""

    steps: tuple[Bid, ...]
    cumulative: tuple[float, ...]
    total_quantity: float


@dataclass(frozen=True)
class ClearingOutcome:
    p_star: float          # broadcast price
    committed_power: float  # kW over bids with price > p_star
    kind: ClearingKind


def build_demand_curve(bids: Iterable[Bid]) -> DemandCurve:
    """Sort bids price-descending (ties by agent id) and accumulate quantity."""
    ordered = sorted(bids, key=lambda b: (-b.price, b.agent_id))
    if not ordered:
        raise EmptyMarketError("cannot build a demand curve from zero bids")
    cumulative = []
    running = 0.0
    for b in ordered:
        running += b.quantity
        cumulative.append(running)
    return DemandCurve(steps=tuple(ordered), cumulative=tuple(cumulative),
                       total_quantity=running)


def _group_boundaries(curve: DemandCurve) -> tuple[list[float], list[float]]:
    """Collapse equal-price runs: per-group prices and end-cumulative sums."""
    prices: list[float] = []
    ends: list[float] = []
    for step, cum in zip(curve.steps, curve.cumulative):
        if prices and step.price == prices[-1]:
            ends[-1] = cum
        else:
            prices.append(step.price)
            ends.append(cum)
    return prices, ends


def clear_market(curve: DemandCurve, target: float) -> ClearingOutcome:
    """Clear the curve against a target power.

    Saturated targets return sentinel outcomes.  A target exactly on a
    step boundary clears at the midpoint of the adjacent prices; a
    target inside a block commits whichever adjacent prefix lands closer
    (ties include the block) and prices the gap midpoint, with virtual
    prices +2 above the top of the curve and -2 below the bottom.
    """
    if target <= 0.0:
        return ClearingOutcome(SENTINEL_ALL_OFF, 0.0, ClearingKind.ALL_OFF)
    if target >= curve.total_quantity:
        return ClearingOutcome(SENTINEL_ALL_ON, curve.total_quantity, ClearingKind.ALL_ON)

    prices, ends = _group_boundaries(curve)
    n_groups = len(prices)

    # committed group count: boundary hit keeps the prefix, interior hit
    # takes the nearer of the two bracketing prefixes (tie -> include)
    j = 0
    prev_end = 0.0
    for g in range(n_groups):
        if target == ends[g]:
            j = g + 1
            break
        if target < ends[g]:
            below = target - prev_end
            above = ends[g] - target
            j = g + 1 if above <= below else g
            break
        prev_end = ends[g]

    committed = ends[j - 1] if j > 0 else 0.0
    p_hi = prices[j - 1] if j > 0 else SENTINEL_ALL_OFF
    p_lo = prices[j] if j < n_groups else SENTINEL_ALL_ON
    p_star = 0.5 * (p_hi + p_lo)
    if p_star >= p_hi:  # adjacent doubles: the midpoint rounded onto p_hi
        p_star = p_lo
    return ClearingOutcome(p_star, committed, ClearingKind.NORMAL)


def committed_power_at_price(curve: DemandCurve, p_star: float) -> float:
    """Power that the broadcast price alone turns on (price strictly above)."""
    total = 0.0
    for step in curve.steps:
        if step.price > p_star:
            total += step.quantity
        else:
            break
    return total


def estimate_net_load(p_g_measured: float, bids: Iterable[Bid]) -> float:
    """Non-device net load seen on the tie line.

    Subtracting the running devices' bid quantities from the one metered
    tie-line reading leaves uncontrollable load minus generation; no
    other feeder metering is required.  May be negative; passed through.
    """
    return p_g_measured - sum(b.quantity for b in bids if b.on_state)


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
