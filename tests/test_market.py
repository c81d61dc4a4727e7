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
from tiesmooth.market import (BidBatch, ClearingKind, DemandCurve, EmptyMarketError,
                              build_demand_curve, clear_market,
                              committed_power_at_price, estimate_net_load)
from tiesmooth.rng import substream


def rows_of(batch):
    """The bids of a batch as (price, quantity, on_state, agent_id) tuples."""
    return list(zip(batch.price.tolist(), batch.quantity.tolist(),
                    batch.on_state.tolist(), batch.agent_id.tolist()))


def batch_of(rows):
    """The batch of (price, quantity, on_state, agent_id) tuples."""
    return BidBatch(*(list(column) for column in zip(*rows)))


def price_order(row):
    """Demand-curve order: price descending, ties by agent id."""
    return -row[0], row[3]


def brute_force_clear(rows, target):
    """Independent oracle: enumerate every price-representable prefix.

    Bids, as (price, quantity, on_state, agent_id) tuples, are sorted
    price-descending (ties by id) and grouped by equal price; the
    candidate commitments are the group-boundary prefixes, scored by
    |power - target| with ties toward committing more.  The price is the
    midpoint across the boundary, with virtual prices +2 / -2 beyond the
    ends, or the lower price when the midpoint rounds onto the upper one.
    """
    ordered = sorted(rows, key=price_order)
    total = sum(quantity for _, quantity, _, _ in ordered)
    if target <= 0:
        return 2.0, 0.0, "all_off"
    if target >= total:
        return -2.0, total, "all_on"

    group_prices, group_ends = [], []
    running = 0.0
    for price, quantity, _, _ in ordered:
        running += quantity
        if group_prices and price == group_prices[-1]:
            group_ends[-1] = running
        else:
            group_prices.append(price)
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
    return price, quantity, on, agent_id


class TestBuildDemandCurve:
    def test_sorting_and_cumulative(self):
        bids = [bid(0.1, 2, agent_id=0), bid(0.9, 2, agent_id=1),
                bid(0.5, 3, agent_id=2)]
        curve = build_demand_curve(batch_of(bids))
        assert curve.price.tolist() == [0.9, 0.5, 0.1]
        assert list(curve.cumulative) == [2, 5, 7]
        assert curve.total_quantity == 7

    def test_single_bid(self):
        curve = build_demand_curve(batch_of([bid(0.3, 4.5)]))
        assert len(curve.price) == 1
        assert curve.total_quantity == 4.5

    def test_equal_prices_ordered_by_agent_id(self):
        bids = [bid(0.5, 1, agent_id=9), bid(0.5, 2, agent_id=3),
                bid(0.5, 4, agent_id=5)]
        curve = build_demand_curve(batch_of(bids))
        assert curve.cumulative.tolist() == [2, 6, 7]  # quantities of ids 3, 5, 9
        assert curve.total_quantity == 7

    def test_empty_rejected(self):
        with pytest.raises(EmptyMarketError):
            build_demand_curve(BidBatch([], [], [], []))


class TestClearMarket:
    ROWS = [bid(p, q, agent_id=i)
            for i, (p, q) in enumerate(zip([0.9, 0.5, 0.1, -0.4], [2.0, 3.0, 2.0, 3.0]))]

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
        bids = [bid(0.5, 2, agent_id=0), bid(0.5, 2, agent_id=1),
                bid(0.2, 2, agent_id=2)]
        curve = build_demand_curve(batch_of(bids))
        out = clear_market(curve, 2.0)  # inside the first (grouped) block
        assert out.committed_power in (0.0, 4.0)
        assert committed_power_at_price(curve, out.p_star) == out.committed_power

    @pytest.mark.parametrize("p_hi", [0.0, 1.0, -0.5])
    def test_adjacent_prices_keep_broadcast_contract(self, p_hi):
        # the midpoint of two adjacent doubles rounds onto one of them; the
        # broadcast price must still turn on exactly the committed bids
        p_lo = float(np.nextafter(p_hi, -np.inf))
        rows = [bid(p_hi, 1.0, agent_id=0), bid(p_lo, 1.0, agent_id=1)]
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
        bids = [bid(p, q, agent_id=i)
                for i, (p, q) in enumerate(zip(prices, quantities))]
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
                by_price = {}
                for price, quantity, _, _ in bids:
                    by_price[price] = by_price.get(price, 0.0) + quantity
                assert abs(out.committed_power - target) \
                    <= max(by_price.values()) / 2.0 + 1e-12
        if out.kind is ClearingKind.NORMAL:
            assert committed_power_at_price(curve, out.p_star) == out.committed_power

    def test_monotone_in_target(self):
        gen = substream(5, 17)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)), agent_id=i)
                for i in range(40)]
        curve = build_demand_curve(batch_of(bids))
        committed = [clear_market(curve, t).committed_power
                     for t in np.linspace(0, curve.total_quantity, 300)]
        assert all(b >= a for a, b in zip(committed, committed[1:]))

    def test_order_invariance(self):
        gen = substream(6, 18)
        bids = [bid(float(gen.uniform(-1, 1)), float(gen.uniform(1, 3)), agent_id=i)
                for i in range(25)]
        out1 = clear_market(build_demand_curve(batch_of(bids)), 20.0)
        out2 = clear_market(build_demand_curve(batch_of(list(reversed(bids)))), 20.0)
        shuffled = list(bids)
        gen.shuffle(shuffled)
        out3 = clear_market(build_demand_curve(batch_of(shuffled)), 20.0)
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
        assert rows_of(batch) == [bid(0.25, 2.5, on=True, agent_id=4),
                                  bid(-0.5, 1.0, on=False, agent_id=9)]
        assert [a.dtype for a in (batch.price, batch.quantity, batch.on_state,
                                  batch.agent_id)] == [float, float, bool, np.int64]

    @settings(max_examples=150, deadline=None)
    @given(fleet_batches(), st.data())
    def test_fleet_shapes_match_oracle(self, batch, data):
        curve = build_demand_curve(batch)
        rows = rows_of(batch)
        ordered = sorted(rows, key=price_order)
        assert curve.price.tolist() == [price for price, *_ in ordered]
        assert curve.cumulative.tolist() == np.cumsum([q for _, q, *_ in ordered]).tolist()
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
            == brute_force_clear(rows, target)
        if out.kind is ClearingKind.NORMAL:
            running = 0.0
            for price, quantity, _, _ in rows:
                if price > out.p_star:
                    running += quantity
            assert running == out.committed_power
            assert committed_power_at_price(curve, out.p_star) == out.committed_power


def lexsort_curve(batch):
    """The curve as one stable two-key sort builds it: the oracle of the
    tie order, bit for bit."""
    order = np.lexsort((batch.agent_id, -batch.price))
    price = batch.price[order]
    cumulative = np.cumsum(batch.quantity[order])
    last = np.flatnonzero(np.append(price[1:] != price[:-1], True))
    first = np.append(0, last[:-1] + 1)
    return DemandCurve(price=price, cumulative=cumulative,
                       group_price=price[first], group_end=cumulative[last])


CURVE_FIELDS = ("price", "cumulative", "group_price", "group_end")


def assert_same_curve(curve, expected):
    for name in CURVE_FIELDS:
        got, want = getattr(curve, name), getattr(expected, name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name


def curve_digest(batch):
    digest = hashlib.sha256()
    for name in CURVE_FIELDS:
        digest.update(getattr(build_demand_curve(batch), name).tobytes())
    return digest.hexdigest()


# Ties everywhere: signed zeros (equal, but of different bits), the bounds,
# adjacent doubles and a few dyadic steps between.
TIE_POOL = [0.0, -0.0, 1.0, -1.0, *_ADJACENT, *(k / 8.0 for k in range(-7, 8) if k)]


@st.composite
def tied_batches(draw):
    n = draw(st.integers(1, 300))
    price = draw(st.lists(st.sampled_from(TIE_POOL), min_size=n, max_size=n))
    quantity = [q / 1024.0 for q in draw(st.lists(
        st.integers(1, 6 * 1024), min_size=n, max_size=n))]
    # ids with gaps, in shuffled order, so no id equals its input position
    agent_id = draw(st.permutations(range(7, 7 + 3 * n, 3)))
    return BidBatch(price, quantity, [False] * n, agent_id)


def long_run_batch(n=5000):
    """Runs of hundreds of bids at +-1, both zeros and a few other prices
    between; shuffled ids with gaps."""
    gen = np.random.default_rng(12)
    price = gen.choice([1.0, -1.0, 1.0, -1.0, 0.0, -0.0, 0.5, -0.25], size=n)
    quantity = gen.integers(1, 6 * 1024, size=n) / 1024.0
    return BidBatch(price, quantity, np.zeros(n, dtype=bool),
                    gen.permutation(np.arange(n) * 3 + 5))


class TestTieOrder:
    """The curve sorts with an unstable sort and then orders each group of
    equal prices by agent id; every array must be the stable sort's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(tied_batches())
    def test_same_bytes_as_the_stable_sort(self, batch):
        assert_same_curve(build_demand_curve(batch), lexsort_curve(batch))

    def test_long_runs(self):
        batch = long_run_batch()
        assert_same_curve(build_demand_curve(batch), lexsort_curve(batch))

    @pytest.mark.parametrize("ids", [[5, 1], [1, 5]])
    @pytest.mark.parametrize("prices", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zero_group_takes_the_first_id_sign(self, prices, ids):
        # 0.0 == -0.0: one group, whose price is that of the smallest id
        batch = BidBatch(prices + [0.5], [1.0, 2.0, 4.0], [False] * 3, ids + [0])
        curve = build_demand_curve(batch)
        assert_same_curve(curve, lexsort_curve(batch))
        assert np.signbit(curve.group_price[1]) == np.signbit(prices[ids.index(1)])

    def test_duplicate_ids_keep_input_order(self):
        batch = BidBatch([0.5, -1.0, 0.5, 0.5, -1.0], [1.0, 2.0, 4.0, 8.0, 16.0],
                         [False] * 5, [3, 3, 2, 3, 3])
        curve = build_demand_curve(batch)
        assert_same_curve(curve, lexsort_curve(batch))
        assert curve.cumulative.tolist() == [4.0, 5.0, 13.0, 15.0, 31.0]

    def test_distinct_prices(self):
        gen = substream(8, 3)
        batch = BidBatch(gen.uniform(-1.0, 1.0, 5000), gen.uniform(1.0, 3.0, 5000),
                         np.zeros(5000, dtype=bool), gen.permutation(5000))
        assert_same_curve(build_demand_curve(batch), lexsort_curve(batch))


# The child builds the long-run batch's curve on the CPU features it was
# left with and reports them with the curve's digest.
_KERNEL_CHILD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_market import curve_digest, long_run_batch
print(json.dumps({"features": sorted(f for f in __cpu_dispatch__ if __cpu_features__[f]),
                  "sha256": curve_digest(long_run_batch())}))
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
    equal keys in its own order; the curve must not show which ran."""

    @pytest.fixture(scope="class")
    def default_kernel(self):
        proc = _run_kernel_child(())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["sha256"] == curve_digest(long_run_batch())  # as in this process
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
        bids = [bid(0.1 * i, q, on=s, agent_id=i)
                for i, (q, s) in enumerate(zip(quantities, on))]
        assert estimate_net_load(p_g, batch_of(bids)) - true_net == 0.0
