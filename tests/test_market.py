"""Demand-curve construction and market clearing against an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiesmooth.market import (Bid, BidBatch, ClearingKind, EmptyMarketError,
                              bids_from_csv, bids_to_csv, build_demand_curve,
                              clear_market, committed_power_at_price,
                              estimate_net_load)
from tiesmooth.rng import substream


def brute_force_clear(bids, target):
    """Independent oracle: enumerate every price-representable prefix.

    Bids sorted price-descending (ties by id) and grouped by equal price;
    the candidate commitments are the group-boundary prefixes, scored by
    |power - target| with ties toward committing more.  The price is the
    midpoint across the boundary, with virtual prices +2 / -2 beyond the
    ends, or the lower price when the midpoint rounds onto the upper one.
    """
    ordered = sorted(bids, key=lambda b: (-b.price, b.agent_id))
    total = sum(b.quantity for b in ordered)
    if target <= 0:
        return 2.0, 0.0, "all_off"
    if target >= total:
        return -2.0, total, "all_on"

    group_prices, group_ends = [], []
    running = 0.0
    for b in ordered:
        running += b.quantity
        if group_prices and b.price == group_prices[-1]:
            group_ends[-1] = running
        else:
            group_prices.append(b.price)
            group_ends.append(running)

    candidates = [0.0] + group_ends  # commitment after 0..G groups
    best_j, best_err = 0, abs(target)
    for j, power in enumerate(candidates):
        err = abs(power - target)
        if err < best_err or (err == best_err and j > best_j):
            best_j, best_err = j, err
    committed = candidates[best_j]
    hi = group_prices[best_j - 1] if best_j > 0 else 2.0
    lo = group_prices[best_j] if best_j < len(group_prices) else -2.0
    mid = (hi + lo) / 2.0
    return (mid if mid < hi else lo), committed, "normal"


def bid(price, quantity, on=False, agent_id=0):
    return Bid(price=price, quantity=quantity, on_state=on, agent_id=agent_id)


class TestBuildDemandCurve:
    def test_sorting_and_cumulative(self):
        bids = [bid(0.1, 2, agent_id=0), bid(0.9, 2, agent_id=1),
                bid(0.5, 3, agent_id=2)]
        curve = build_demand_curve(bids)
        assert [s.price for s in curve.steps] == [0.9, 0.5, 0.1]
        assert list(curve.cumulative) == [2, 5, 7]
        assert curve.total_quantity == 7

    def test_single_bid(self):
        curve = build_demand_curve([bid(0.3, 4.5)])
        assert len(curve.steps) == 1
        assert curve.total_quantity == 4.5

    def test_equal_prices_ordered_by_agent_id(self):
        bids = [bid(0.5, 1, agent_id=9), bid(0.5, 2, agent_id=3),
                bid(0.5, 4, agent_id=5)]
        curve = build_demand_curve(bids)
        assert [s.agent_id for s in curve.steps] == [3, 5, 9]
        assert curve.total_quantity == 7

    def test_empty_rejected(self):
        with pytest.raises(EmptyMarketError):
            build_demand_curve([])


class TestClearMarket:
    def curve(self):
        prices = [0.9, 0.5, 0.1, -0.4]
        quantities = [2.0, 3.0, 2.0, 3.0]
        return build_demand_curve([bid(p, q, agent_id=i)
                                   for i, (p, q) in enumerate(zip(prices, quantities))])

    def test_boundary_midpoint(self):
        out = clear_market(self.curve(), 5.0)
        assert out.p_star == pytest.approx((0.5 + 0.1) / 2.0)
        assert out.committed_power == 5.0
        assert out.kind is ClearingKind.NORMAL

    def test_interior_tie_includes_block(self):
        out = clear_market(self.curve(), 6.0)
        assert out.committed_power == 7.0
        assert out.p_star == pytest.approx((0.1 + (-0.4)) / 2.0)

    def test_saturation_all_on(self):
        out = clear_market(self.curve(), 12.0)
        assert (out.p_star, out.committed_power, out.kind) \
            == (-2.0, 10.0, ClearingKind.ALL_ON)

    def test_zero_target_all_off(self):
        out = clear_market(self.curve(), 0.0)
        assert (out.p_star, out.committed_power, out.kind) \
            == (2.0, 0.0, ClearingKind.ALL_OFF)

    def test_matches_oracle_on_spec_curve(self):
        curve = self.curve()
        bids = list(curve.steps)
        for target in np.linspace(-1.0, 11.0, 241):
            expect = brute_force_clear(bids, float(target))
            got = clear_market(curve, float(target))
            assert got.p_star == expect[0]
            assert got.committed_power == expect[1]

    def test_equal_price_group_is_atomic(self):
        # a price boundary cannot split equal-price devices, so the
        # committed set stays reproducible from the broadcast price alone
        bids = [bid(0.5, 2, agent_id=0), bid(0.5, 2, agent_id=1),
                bid(0.2, 2, agent_id=2)]
        curve = build_demand_curve(bids)
        out = clear_market(curve, 2.0)  # inside the first (grouped) block
        assert out.committed_power in (0.0, 4.0)
        assert committed_power_at_price(curve, out.p_star) == out.committed_power

    @pytest.mark.parametrize("p_hi", [0.0, 1.0, -0.5])
    def test_adjacent_prices_keep_broadcast_contract(self, p_hi):
        # the midpoint of two adjacent doubles rounds onto one of them; the
        # broadcast price must still turn on exactly the committed bids
        p_lo = float(np.nextafter(p_hi, -np.inf))
        curve = build_demand_curve([bid(p_hi, 1.0, agent_id=0),
                                    bid(p_lo, 1.0, agent_id=1)])
        out = clear_market(curve, 1.0)
        assert out.committed_power == 1.0
        assert committed_power_at_price(curve, out.p_star) == 1.0
        assert out.p_star == brute_force_clear(curve.steps, 1.0)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_batches_match_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        prices = data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        quantities = data.draw(st.lists(
            st.floats(0.5, 5.0, allow_nan=False), min_size=n, max_size=n))
        bids = [bid(p, q, agent_id=i)
                for i, (p, q) in enumerate(zip(prices, quantities))]
        total = sum(quantities)
        target = data.draw(st.floats(-1.0, total + 1.0, allow_nan=False))
        curve = build_demand_curve(bids)
        out = clear_market(curve, target)
        p_exp, c_exp, kind_exp = brute_force_clear(bids, target)
        assert out.p_star == p_exp
        assert out.committed_power == c_exp
        assert out.kind.value == kind_exp
        # conservation bound: per-bid granularity with distinct prices;
        # equal-price bids commit atomically, so ties widen it to half the
        # largest same-price block
        if 0.0 <= target <= total:
            if len(set(prices)) == n:
                assert abs(out.committed_power - target) <= max(quantities)
            else:
                by_price = {}
                for b in bids:
                    by_price[b.price] = by_price.get(b.price, 0.0) + b.quantity
                assert abs(out.committed_power - target) \
                    <= max(by_price.values()) / 2.0 + 1e-12
        if out.kind is ClearingKind.NORMAL:
            assert committed_power_at_price(curve, out.p_star) == out.committed_power

    def test_monotone_in_target(self):
        gen = substream(5, 17)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)), agent_id=i)
                for i in range(40)]
        curve = build_demand_curve(bids)
        committed = [clear_market(curve, t).committed_power
                     for t in np.linspace(0, curve.total_quantity, 300)]
        assert all(b >= a for a, b in zip(committed, committed[1:]))

    def test_order_invariance(self):
        gen = substream(6, 18)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)), agent_id=i)
                for i in range(25)]
        out1 = clear_market(build_demand_curve(bids), 20.0)
        out2 = clear_market(build_demand_curve(list(reversed(bids))), 20.0)
        shuffled = list(bids)
        gen.shuffle(shuffled)
        out3 = clear_market(build_demand_curve(shuffled), 20.0)
        assert out1 == out2 == out3


# Fleet-like price pool: signed zeros, the bounds and adjacent-double pairs,
# so equal-price groups are large and midpoints can round onto a price.
_ADJACENT = [0.5, float(np.nextafter(0.5, -np.inf)), 5e-324, -5e-324,
             float(np.nextafter(1.0, -np.inf)), float(np.nextafter(-1.0, np.inf))]
PRICE_POOL = [0.0, -0.0, 1.0, -1.0, 0.25, -0.75] + _ADJACENT


@st.composite
def fleet_batches(draw):
    n = draw(st.integers(1, 300))
    price = draw(st.lists(st.sampled_from(PRICE_POOL), min_size=n, max_size=n))
    # multiples of 2**-10 kW, like device ratings: prefix sums are exact
    quantity = [q / 1024.0 for q in draw(st.lists(
        st.integers(1, 6 * 1024), min_size=n, max_size=n))]
    on_state = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    agent_id = draw(st.permutations(range(n)))
    return BidBatch(price, quantity, on_state, agent_id)


class TestBidBatch:
    @pytest.mark.parametrize("price, quantity", [
        (0.5, 0.0), (0.5, -1.0), (1.5, 1.0), (-1.0000001, 1.0), (float("nan"), 1.0)])
    def test_rejects_invalid_bids(self, price, quantity):
        with pytest.raises(ValueError):
            BidBatch([0.1, price], [1.0, quantity], [False, True], [0, 1])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            BidBatch([0.1, 0.2], [1.0], [False, True], [0, 1])

    def test_rows_and_length(self):
        batch = BidBatch([0.25, -0.5], [2.5, 1.0], [True, False], [4, 9])
        assert len(batch) == 2
        assert list(batch) == [bid(0.25, 2.5, on=True, agent_id=4),
                               bid(-0.5, 1.0, on=False, agent_id=9)]
        assert BidBatch.of(batch) is batch

    @settings(max_examples=150, deadline=None)
    @given(fleet_batches(), st.data())
    def test_fleet_shapes_match_oracle(self, batch, data):
        curve = build_demand_curve(batch)
        ordered = sorted(batch, key=lambda b: (-b.price, b.agent_id))
        assert [b.agent_id for b in curve.steps] == [b.agent_id for b in ordered]
        total = curve.total_quantity
        # a target on a step end, halfway between two group ends (exact:
        # dyadic sums, so the nearer-prefix rule ties) or anywhere
        ends = [0.0] + curve.group_end.tolist()
        target = data.draw(st.one_of(
            st.sampled_from([0.0] + curve.cumulative.tolist()),
            st.sampled_from([(a + b) / 2.0 for a, b in zip(ends, ends[1:])]),
            st.floats(-1.0, total + 1.0, allow_nan=False)))
        out = clear_market(curve, target)
        assert (out.p_star, out.committed_power, out.kind.value) \
            == brute_force_clear(list(batch), target)
        if out.kind is ClearingKind.NORMAL:
            running = 0.0
            for b in batch:
                if b.price > out.p_star:
                    running += b.quantity
            assert running == out.committed_power
            assert committed_power_at_price(curve, out.p_star) == out.committed_power

    @settings(max_examples=50, deadline=None)
    @given(fleet_batches())
    def test_round_trips_through_rows(self, batch):
        again = BidBatch.of(list(batch))
        for name in ("price", "quantity", "on_state", "agent_id"):
            # byte equality also tells -0.0 from 0.0
            assert getattr(again, name).tobytes() == getattr(batch, name).tobytes()


class TestEstimateNetLoad:
    def test_substitution(self):
        bids = [bid(0.2, 50, on=True), bid(0.1, 70, on=True), bid(0.9, 30, on=False)]
        assert estimate_net_load(500.0, bids) == 380.0

    def test_all_off_passthrough(self):
        bids = [bid(0.2, 50, on=False), bid(0.1, 70, on=False)]
        assert estimate_net_load(500.0, bids) == 500.0

    def test_negative_passthrough(self):
        bids = [bid(0.2, 50, on=True)]
        assert estimate_net_load(20.0, bids) == -30.0

    def test_exact_zero_error_for_truthful_devices(self):
        # dyadic ratings: the measurement identity is exact, not approximate
        quantities = [2.5, 3.25, 1.125, 2.0078125]
        on = [True, False, True, True]
        true_net = 412.375
        p_g = sum(q for q, s in zip(quantities, on) if s) + true_net
        bids = [bid(0.1 * i, q, on=s, agent_id=i)
                for i, (q, s) in enumerate(zip(quantities, on))]
        assert estimate_net_load(p_g, bids) - true_net == 0.0


class TestBidCsv:
    def test_round_trip(self):
        bids = [bid(0.25, 2.5, on=True, agent_id=3),
                bid(-0.75, 1.0078125, on=False, agent_id=9)]
        text = bids_to_csv(bids)
        assert bids_from_csv(text) == bids

    def test_header_checked(self):
        with pytest.raises(ValueError):
            bids_from_csv("bogus,header\n1,2\n")
