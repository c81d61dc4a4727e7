"""Demand-curve construction and market clearing against an oracle."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiesmooth
from tiesmooth.market import (BidBatch, ClearingKind, EmptyMarketError, build_demand_curve,
                              clear_market, committed_power_at_price, estimate_net_load)
from tiesmooth.rng import substream


def rows_of(batch):
    """The bids of a batch as (price, quantity, on_state) tuples."""
    return list(zip(batch.price.tolist(), batch.quantity.tolist(), batch.on_state.tolist()))


def batch_of(rows):
    """The batch of (price, quantity, on_state) tuples."""
    return BidBatch(*(list(column) for column in zip(*rows)))


def price_order(level):
    """Demand-curve order: price descending."""
    return -level[0]


def price_levels(rows):
    """(price, quantity) per distinct price of the (price, quantity,
    on_state) tuples, price-descending; each level's quantity is summed
    in bid order.  0.0 and -0.0 are one level."""
    levels = {}
    for price, quantity, _ in rows:
        levels[price] = levels.get(price, 0.0) + quantity
    return sorted(levels.items(), key=price_order)


def brute_force_clear(rows, target):
    """Independent oracle: enumerate every price-representable prefix.

    Bids, as (price, quantity, on_state) tuples, are summed per price
    level and the levels accumulated price-descending; the candidate
    commitments are the level-boundary prefixes, scored by
    |power - target| with ties toward committing more.  The price is the
    midpoint across the boundary, with virtual prices +2 / -2 beyond the
    ends, or the lower price when the midpoint rounds onto the upper one.
    """
    level_prices, level_ends = [], []
    running = 0.0
    for price, quantity in price_levels(rows):
        running += quantity
        level_prices.append(price)
        level_ends.append(running)
    if target <= 0:
        return 2.0, 0.0, "all_off"
    if target >= running:
        return -2.0, running, "all_on"

    candidates = [0.0] + level_ends  # commitment after 0..L levels
    best_j, best_err = 0, abs(target)
    for j, power in enumerate(candidates):
        err = abs(power - target)
        if err < best_err or (err == best_err and j > best_j):
            best_j, best_err = j, err
    committed = candidates[best_j]
    hi = level_prices[best_j - 1] if best_j > 0 else 2.0
    lo = level_prices[best_j] if best_j < len(level_prices) else -2.0
    mid = (hi + lo) / 2.0
    return (mid if mid < hi else lo), committed, "normal"


def bid(price, quantity, on=False):
    return price, quantity, on


class TestBuildDemandCurve:
    def test_sorting_and_cumulative(self):
        bids = [bid(0.1, 2), bid(0.9, 2), bid(0.5, 3)]
        curve = build_demand_curve(batch_of(bids))
        assert curve.price.tolist() == [0.9, 0.5, 0.1]
        assert list(curve.cumulative) == [2, 5, 7]
        assert curve.total_quantity == 7

    def test_single_bid(self):
        curve = build_demand_curve(batch_of([bid(0.3, 4.5)]))
        assert len(curve.price) == 1
        assert curve.total_quantity == 4.5

    def test_equal_prices_form_one_level(self):
        bids = [bid(0.5, 1), bid(-0.0, 2), bid(0.5, 4), bid(0.0, 8)]
        curve = build_demand_curve(batch_of(bids))
        assert curve.price.tolist() == [0.5, 0.0] and not np.signbit(curve.price[1])
        assert curve.cumulative.tolist() == [5, 15]

    def test_levels_sum_in_bid_order(self):
        # off the 2**-10 kW quantum a sum's order shows: 1.0 + 2**-53
        # rounds back to 1.0, while the small quantities first add up
        bids = [bid(0.5 if i % 2 else -0.5, 1.0 if i < 2 else 2.0 ** -53) for i in range(400)]
        for rows in (bids, bids[::-1]):
            expected = np.cumsum([q for _, q in price_levels(rows)]).tolist()
            assert build_demand_curve(batch_of(rows)).cumulative.tolist() == expected
        assert expected != [1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyMarketError):
            build_demand_curve(BidBatch([], [], []))


class TestClearMarket:
    ROWS = [bid(p, q) for p, q in zip([0.9, 0.5, 0.1, -0.4], [2.0, 3.0, 2.0, 3.0])]

    def curve(self):
        return build_demand_curve(batch_of(self.ROWS))

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
        bids = self.ROWS
        for target in np.linspace(-1.0, 11.0, 241):
            expect = brute_force_clear(bids, float(target))
            got = clear_market(curve, float(target))
            assert got.p_star == expect[0]
            assert got.committed_power == expect[1]

    def test_equal_price_group_is_atomic(self):
        # a price boundary cannot split equal-price devices, so the
        # committed set stays reproducible from the broadcast price alone
        bids = [bid(0.5, 2), bid(0.5, 2), bid(0.2, 2)]
        curve = build_demand_curve(batch_of(bids))
        out = clear_market(curve, 2.0)  # inside the first (grouped) block
        assert out.committed_power in (0.0, 4.0)
        assert committed_power_at_price(curve, out.p_star) == out.committed_power

    @pytest.mark.parametrize("p_hi", [0.0, 1.0, -0.5])
    def test_adjacent_prices_keep_broadcast_contract(self, p_hi):
        # the midpoint of two adjacent doubles rounds onto one of them; the
        # broadcast price must still turn on exactly the committed bids
        p_lo = float(np.nextafter(p_hi, -np.inf))
        rows = [bid(p_hi, 1.0), bid(p_lo, 1.0)]
        curve = build_demand_curve(batch_of(rows))
        out = clear_market(curve, 1.0)
        assert out.committed_power == 1.0
        assert committed_power_at_price(curve, out.p_star) == 1.0
        assert out.p_star == brute_force_clear(rows, 1.0)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_batches_match_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        prices = data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        quantities = data.draw(st.lists(
            st.floats(0.5, 5.0, allow_nan=False), min_size=n, max_size=n))
        bids = [bid(p, q) for p, q in zip(prices, quantities)]
        total = sum(quantities)
        target = data.draw(st.floats(-1.0, total + 1.0, allow_nan=False))
        curve = build_demand_curve(batch_of(bids))
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
                assert abs(out.committed_power - target) \
                    <= max(q for _, q in price_levels(bids)) / 2.0 + 1e-12
        if out.kind is ClearingKind.NORMAL:
            assert committed_power_at_price(curve, out.p_star) == out.committed_power

    def test_monotone_in_target(self):
        gen = substream(5, 17)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)))
                for i in range(40)]
        curve = build_demand_curve(batch_of(bids))
        committed = [clear_market(curve, t).committed_power
                     for t in np.linspace(0, curve.total_quantity, 300)]
        assert all(b >= a for a, b in zip(committed, committed[1:]))

    def test_order_invariance(self):
        gen = substream(6, 18)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)))
                for i in range(25)]
        out1 = clear_market(build_demand_curve(batch_of(bids)), 20.0)
        out2 = clear_market(build_demand_curve(batch_of(list(reversed(bids)))), 20.0)
        shuffled = list(bids)
        gen.shuffle(shuffled)
        out3 = clear_market(build_demand_curve(batch_of(shuffled)), 20.0)
        assert out1 == out2 == out3


# Fleet-like prices: signed zeros (equal, but of different bits), the
# bounds, adjacent doubles and a few dyadic steps between, so levels hold
# many bids and midpoints can round onto a price.
_ADJACENT = [0.5, float(np.nextafter(0.5, -np.inf)), 5e-324, -5e-324,
             float(np.nextafter(1.0, -np.inf)), float(np.nextafter(-1.0, np.inf))]
TIE_POOL = [0.0, -0.0, 1.0, -1.0, *_ADJACENT, *(k / 8.0 for k in range(-7, 8) if k)]


@st.composite
def fleet_batches(draw):
    n = draw(st.integers(1, 300))
    price = draw(st.lists(st.sampled_from(TIE_POOL), min_size=n, max_size=n))
    # multiples of 2**-10 kW, like device ratings: every sum is exact
    quantity = [q / 1024.0 for q in draw(st.lists(
        st.integers(1, 6 * 1024), min_size=n, max_size=n))]
    on_state = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return BidBatch(price, quantity, on_state)


def outcome_bits(out):
    return out.p_star.hex(), out.committed_power.hex(), out.kind


class TestBidBatch:
    @pytest.mark.parametrize("price, quantity", [
        (0.5, 0.0), (0.5, -1.0), (1.5, 1.0), (-1.0000001, 1.0), (float("nan"), 1.0),
        (0.5, float("inf")), (0.5, float("nan"))])
    def test_rejects_invalid_bids(self, price, quantity):
        with pytest.raises(ValueError):
            BidBatch([0.1, price], [1.0, quantity], [False, True])

    def test_rejects_a_quantity_sum_past_the_largest_float(self):
        # each quantity is finite, their sum is not
        with pytest.raises(ValueError):
            BidBatch([0.1, 0.5], [1e308, 1e308], [False, True])

    @pytest.mark.parametrize("quantity", [[np.inf, -np.inf], [1e308, 1e308, -np.inf]],
                             ids=["inf_minus_inf", "overflow_then_minus_inf"])
    def test_rejects_infinite_quantities_before_summing(self, quantity):
        # a sum taken first would warn of inf - inf, an error under the test settings
        with pytest.raises(ValueError):
            BidBatch(np.linspace(0.1, 0.5, len(quantity)), quantity, [False] * len(quantity))

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            BidBatch([0.1, 0.2], [1.0], [False, True])

    def test_rows_and_length(self):
        batch = BidBatch([0.25, -0.5], [2.5, 1.0], [True, False])
        assert len(batch) == 2
        assert rows_of(batch) == [bid(0.25, 2.5, on=True), bid(-0.5, 1.0, on=False)]
        assert [a.dtype for a in (batch.price, batch.quantity, batch.on_state)] \
            == [float, float, bool]

    @settings(max_examples=150, deadline=None)
    @given(fleet_batches(), st.data())
    def test_fleet_shapes_match_oracle(self, batch, data):
        curve = build_demand_curve(batch)
        rows = rows_of(batch)
        levels = price_levels(rows)
        assert curve.price.tolist() == [price for price, _ in levels]
        assert curve.cumulative.tolist() == np.cumsum([q for _, q in levels]).tolist()
        total = curve.total_quantity
        # a target on a level end, halfway between two level ends (exact:
        # dyadic sums, so the nearer-prefix rule ties) or anywhere
        ends = [0.0] + curve.cumulative.tolist()
        target = data.draw(st.one_of(
            st.sampled_from(ends),
            st.sampled_from([(a + b) / 2.0 for a, b in zip(ends, ends[1:])]),
            st.floats(-1.0, total + 1.0, allow_nan=False)))
        out = clear_market(curve, target)
        assert (out.p_star, out.committed_power, out.kind.value) \
            == brute_force_clear(rows, target)
        if out.kind is ClearingKind.NORMAL:
            running = 0.0
            for price, quantity, _ in rows:
                if price > out.p_star:
                    running += quantity
            assert running == out.committed_power
            assert committed_power_at_price(curve, out.p_star) == out.committed_power

    @settings(max_examples=150, deadline=None)
    @given(fleet_batches(), st.data())
    def test_any_bid_order_gives_the_same_levels(self, batch, data):
        order = data.draw(st.permutations(range(len(batch))))
        curve = build_demand_curve(batch)
        other = build_demand_curve(BidBatch(batch.price[order], batch.quantity[order],
                                            batch.on_state[order]))
        assert curve.price.tobytes() == other.price.tobytes()
        assert curve.cumulative.tobytes() == other.cumulative.tobytes()
        assert not np.signbit(curve.price[curve.price == 0.0]).any()
        ends = [0.0] + curve.cumulative.tolist()
        for target in data.draw(st.lists(st.one_of(
                st.sampled_from([(a + b) / 2.0 for a, b in zip(ends, ends[1:])]),
                st.floats(-1.0, curve.total_quantity + 1.0, allow_nan=False)),
                min_size=1, max_size=4)):
            assert outcome_bits(clear_market(curve, target)) \
                == outcome_bits(clear_market(other, target))


class TestTieLevels:
    """Equal prices form one level whose quantity is summed in bid order."""

    def test_long_runs(self):
        batch = long_run_batch()
        curve = build_demand_curve(batch)
        levels = price_levels(rows_of(batch))
        assert curve.price.tolist() == [1.0, 0.5, 0.0, -0.25, -1.0]
        assert curve.price.tolist() == [price for price, _ in levels]
        assert curve.cumulative.tolist() == np.cumsum([q for _, q in levels]).tolist()

    def test_distinct_prices(self):
        # no ties: one level per bid, in price-descending order
        gen = substream(8, 3)
        batch = BidBatch(gen.uniform(-1.0, 1.0, 5000), gen.uniform(1.0, 3.0, 5000),
                         np.zeros(5000, dtype=bool))
        order = np.argsort(-batch.price, kind="stable")
        curve = build_demand_curve(batch)
        assert len(np.unique(batch.price)) == 5000
        assert curve.price.tobytes() == batch.price[order].tobytes()
        assert curve.cumulative.tobytes() == np.cumsum(batch.quantity[order]).tobytes()

    @pytest.mark.parametrize("prices", [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]],
                             ids=["pos_neg", "neg_pos", "neg_neg", "pos_pos"])
    def test_signed_zero_level_is_positive_zero(self, prices):
        # 0.0 == -0.0: one level, priced +0.0 whichever zeros it holds
        curve = build_demand_curve(BidBatch(prices + [0.5], [1.0, 2.0, 4.0], [False] * 3))
        assert curve.price.tolist() == [0.5, 0.0] and not np.signbit(curve.price[1])
        assert curve.cumulative.tolist() == [4.0, 7.0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_quantities_sum_in_bid_order(self, data):
        # quantities off the 2**-10 kW quantum, whose sums depend on order
        n = data.draw(st.integers(1, 60))
        price = data.draw(st.lists(st.sampled_from(TIE_POOL[:6]), min_size=n, max_size=n))
        quantity = data.draw(st.lists(st.floats(2.0 ** -60, 1e6, allow_nan=False),
                                      min_size=n, max_size=n))
        batch = BidBatch(price, quantity, [False] * n)
        levels = price_levels(rows_of(batch))
        running, ends = 0.0, []
        for _, level_quantity in levels:
            running += level_quantity
            ends.append(running)
        curve = build_demand_curve(batch)
        assert curve.price.tolist() == [p for p, _ in levels]
        assert curve.cumulative.tolist() == ends


def long_run_batch(n=5000):
    """Runs of hundreds of bids at +-1, both zeros and a few other prices
    between."""
    gen = np.random.default_rng(12)
    price = gen.choice([1.0, -1.0, 1.0, -1.0, 0.0, -0.0, 0.5, -0.25], size=n)
    quantity = gen.integers(1, 6 * 1024, size=n) / 1024.0
    return BidBatch(price, quantity, np.zeros(n, dtype=bool))


def market_digest(batch):
    """sha256 of the batch's curve and of its clearing at 21 targets, the
    two sentinels among them."""
    curve = build_demand_curve(batch)
    digest = hashlib.sha256(curve.price.tobytes() + curve.cumulative.tobytes())
    for target in np.linspace(-1.0, curve.total_quantity + 1.0, 21).tolist():
        digest.update(repr(outcome_bits(clear_market(curve, target))).encode())
    return digest.hexdigest()


# The child clears the long-run batch on the CPU features it was left
# with and reports them with the digest of its curve and clearings.
_KERNEL_CHILD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_market import long_run_batch, market_digest
print(json.dumps({"features": sorted(f for f in __cpu_dispatch__ if __cpu_features__[f]),
                  "sha256": market_digest(long_run_batch())}))
"""


def _run_kernel_child(disabled):
    path = [str(Path(tiesmooth.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = ",".join(disabled)
    return subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)


class TestKernelDeterminism:
    """NumPy picks its sort kernel by CPU feature, and each kernel leaves
    equal keys in its own order; the curve and its clearing must not show
    which ran."""

    @pytest.fixture(scope="class")
    def default_kernel(self):
        proc = _run_kernel_child(())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["sha256"] == market_digest(long_run_batch())  # as in this process
        return report

    # NumPy 2.4's names: the AVX-512 and AVX2 kernels switched off in turn
    @pytest.mark.parametrize("disabled", [
        ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
        ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
    ], ids=["avx2", "baseline"])
    def test_same_digest_on_every_sort_kernel(self, default_kernel, disabled):
        features = set(default_kernel["features"])
        if not features & set(disabled):
            pytest.skip(f"this CPU runs none of {', '.join(disabled)}")
        proc = _run_kernel_child(disabled)
        if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip(f"this NumPy cannot disable {', '.join(disabled)}")
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        if set(child["features"]) != features - set(disabled):
            pytest.skip(f"this NumPy ignored NPY_DISABLE_CPU_FEATURES={','.join(disabled)}")
        assert child["sha256"] == default_kernel["sha256"]


class TestEstimateNetLoad:
    def test_substitution(self):
        bids = [bid(0.2, 50, on=True), bid(0.1, 70, on=True), bid(0.9, 30, on=False)]
        assert estimate_net_load(500.0, batch_of(bids)) == 380.0

    def test_all_off_passthrough(self):
        bids = [bid(0.2, 50, on=False), bid(0.1, 70, on=False)]
        assert estimate_net_load(500.0, batch_of(bids)) == 500.0

    def test_negative_passthrough(self):
        bids = [bid(0.2, 50, on=True)]
        assert estimate_net_load(20.0, batch_of(bids)) == -30.0

    def test_exact_zero_error_for_truthful_devices(self):
        # dyadic ratings: the measurement identity is exact, not approximate
        quantities = [2.5, 3.25, 1.125, 2.0078125]
        on = [True, False, True, True]
        true_net = 412.375
        p_g = sum(q for q, s in zip(quantities, on) if s) + true_net
        bids = [bid(0.1 * i, q, on=s) for i, (q, s) in enumerate(zip(quantities, on))]
        assert estimate_net_load(p_g, batch_of(bids)) - true_net == 0.0
