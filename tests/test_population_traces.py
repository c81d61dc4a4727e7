"""Fleet synthesis and input-trace generation."""

import collections
import functools
import hashlib
import importlib.util
import inspect
import io
import math
import sys

import numpy as np
import pytest

import tiesmooth.population as population
import tiesmooth.traces as traces
from tiesmooth import rng
from tiesmooth.agents import controller_faults
from tiesmooth.population import (COLUMNS, ETP_FIELDS, MAX_REDRAWS, PEAK_COINCIDENCE,
                                  Population, PopulationError, estimate_free_peak_kw,
                                  generate_population, quantize_power_kw,
                                  total_rated_power_kw)
from tiesmooth.scenario import (CONTROLLER_FIELDS, HOUSE_FIELDS, Dist, PopulationSpec,
                                ScenarioConfig, default_population_distributions)
from tiesmooth.thermal import (DEFAULT_DERIVATION, POWER_QUANTUM_KW, derive_etp_terms,
                               etp_faults, geometry_faults)
from tiesmooth.traces import (TRACE_CSV_HEADER, generate_traces,
                              generate_training_traces, peak_weather,
                              read_traces, write_traces)

from handmade import house_rows


class TestGeneratePopulation:
    def test_deterministic_for_seed(self):
        spec = PopulationSpec(n=40)
        assert generate_population(spec, 123) == generate_population(spec, 123)
        assert generate_population(spec, 123) != generate_population(spec, 124)

    def test_house_draws_independent_of_population_size(self):
        small = generate_population(PopulationSpec(n=5), 7)
        large = generate_population(PopulationSpec(n=20), 7)
        assert large.take(slice(5)) == small

    def test_floor_area_mean_matches_distribution(self):
        houses = generate_population(PopulationSpec(n=10000), 3)
        mean = np.mean(houses.columns["floor_area"])
        assert mean == pytest.approx(132.0, rel=0.02)

    def test_normals_truncated_at_three_sigma(self):
        houses = generate_population(PopulationSpec(n=3000), 11)
        for h in house_rows(houses):
            assert abs(h.air_change_rate - 0.5) <= 3 * 0.06 + 1e-12
            assert abs(h.r_window - 0.38) <= 3 * 0.03 + 1e-12
            assert abs(h.t_set - 26.0) <= 3 * 0.5 + 1e-12

    def test_controller_invariants_hold(self):
        houses = generate_population(PopulationSpec(n=500), 19)
        for a in house_rows(houses):
            assert 0 < a.deadband < min(a.t_high, a.t_low)
            assert a.epsilon + a.deadband / 2 <= min(a.t_high, a.t_low)
            assert a.t_set - a.t_low < a.t_set < a.t_set + a.t_high

    def test_ratings_are_dyadic(self):
        houses = generate_population(PopulationSpec(n=100), 23)
        for h in house_rows(houses):
            steps = h.rated_power / POWER_QUANTUM_KW
            assert steps == round(steps)
            # capacity restated from the quantized rating keeps the ratio exact
            assert h.rated_electrical_power \
                == pytest.approx(h.cooling_capacity / h.eer, rel=1e-12)

    def test_fields_follow_their_distributions(self):
        # a fleet of the default tables, every field against its own law;
        # no house of it needs a second attempt, so none is conditioned
        stats = pytest.importorskip("scipy.stats")
        houses = generate_population(PopulationSpec(n=5000), 42)
        for name, d in default_population_distributions().items():
            x = houses.columns[name]
            if d.kind == "uniform":
                result = stats.kstest((x - d.a) / (d.b - d.a), stats.uniform.cdf)
            else:
                result = stats.kstest((x - d.a) / d.b, stats.truncnorm(-3.0, 3.0).cdf)
            assert result.pvalue > 1e-3, name

    def test_draws_without_numpy_generators(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a NumPy generator was made")

        expected = generate_population(PopulationSpec(n=50), 42)
        monkeypatch.setattr(np.random, "Generator", refuse)
        monkeypatch.setattr(np.random, "Philox", refuse)
        assert generate_population(PopulationSpec(n=50), 42) == expected

    def test_quantize_power(self):
        assert quantize_power_kw(2.73072) * 1024 == round(2.73072 * 1024)
        assert quantize_power_kw(0.0) == 0.0


class TestHouseStream:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_is_checked(self, seed):
        with pytest.raises(ValueError, match="seed"):
            generate_population(PopulationSpec(n=1), seed)


def pure_statistics():
    """The stdlib's `statistics` as its Python source defines it: loaded
    afresh with `_statistics` blocked, so that the C build's arithmetic
    (which a compiler may contract into FMAs) cannot enter the reference."""
    spec = importlib.util.find_spec("statistics")
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("_statistics")
    sys.modules["_statistics"] = None  # its import raises ImportError
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["_statistics"]
        else:
            sys.modules["_statistics"] = saved
    assert inspect.isfunction(module._normal_dist_inv_cdf)
    return module


NormalDist = pure_statistics().NormalDist
# Phi(-3) and Phi(3)
P_LO, P_HI = 0.0013498980316301035, 0.9986501019683699


def per_house_columns(spec, seed, consts=DEFAULT_DERIVATION, epsilon_margin=0.05):
    """The per-house synthesis the columns replace, as columns: a fresh
    generator per house, 16 raw outputs an attempt with field j from
    output j, a normal from the pure-Python `NormalDist(a, b).inv_cdf`,
    the fault functions checked on Python floats stage by stage, the
    rating rounded by Python's `round`, the next attempt while a check
    fails."""
    rows = []
    for i in range(spec.n):
        gen = rng.substream(seed, rng.HOUSE_STREAM_BASE + i)
        for _ in range(MAX_REDRAWS):
            values = {}
            for name, raw in zip(ALL_FIELDS, gen.bit_generator.random_raw(16).tolist()):
                d, u = spec.distributions[name], (raw >> 11) * 2.0**-53
                values[name] = (d.a + (d.b - d.a) * u if d.kind == "uniform"
                                else NormalDist(d.a, d.b).inv_cdf(P_LO + (P_HI - P_LO) * u))
            geometry = {name: values[name] for name in HOUSE_FIELDS}
            if geometry_faults(geometry):
                continue
            terms = derive_etp_terms(geometry, consts)
            etp = {name: float(terms[name]) for name in ETP_FIELDS}
            # round() refuses a NaN rating
            if terms["net_wall"] <= 0 or etp_faults(etp) \
                    or math.isnan(etp["rated_electrical_power"]):
                continue
            rated_kw = round(etp["rated_electrical_power"] / 1000.0 / POWER_QUANTUM_KW) \
                * POWER_QUANTUM_KW
            etp.update(cooling_capacity=rated_kw * 1000.0 * geometry["eer"],
                       rated_electrical_power=rated_kw * 1000.0)
            agent = {"t_set": values["t_set"], "deadband": values["deadband"],
                     "t_high": values["t_high"], "t_low": values["t_low"],
                     "rated_power": rated_kw,
                     "epsilon": values["deadband"] / 2.0 + epsilon_margin}
            if rated_kw > 0 and not etp_faults(etp) and not controller_faults(agent):
                break
        else:
            raise PopulationError(f"house {i}: no valid draw in {MAX_REDRAWS} attempts")
        rows.append({**geometry, **etp, **agent})
    return {name: np.array([row[name] for row in rows]) for name in COLUMNS}


def spec_with(n, **dists):
    return PopulationSpec(n=n, distributions={**default_population_distributions(),
                                              **{k: Dist.parse(v) for k, v in dists.items()}})


CHUNK = 700  # a walk's houses in tests, so that several walks stay small
ALL_FIELDS = HOUSE_FIELDS + CONTROLLER_FIELDS
ORACLE_SPECS = {
    "default": {},
    # every field a truncated normal
    "truncation-heavy": {"floor_area": "normal 132.0 15.0", "shgc": "normal 0.36 0.04",
                         "eer": "normal 3.5 0.15", "deadband": "normal 0.3 0.03",
                         "t_high": "normal 2.5 0.15", "t_low": "normal 2.5 0.15"},
    # a wall fraction past 1 fails a check: houses take several attempts
    "wwr-replays": {"window_wall_ratio": "normal 0.5 0.3"},
    # a deadband as wide as the band fails the controller checks, and a
    # wide uniform field drives the attempts
    "band-replays": {"deadband": "uniform 0.1 2.6", "r_wall": "normal 0.4 0.3"},
}


@functools.cache
def oracle_columns(name, seed):
    """`per_house_columns` of the first CHUNK + 1 houses of a spec."""
    return per_house_columns(spec_with(CHUNK + 1, **ORACLE_SPECS[name]), seed,
                             epsilon_margin=0.07)


class TestColumns:
    def test_columns_pinned(self):
        # sha256 of every column at n = 2 000, seed 42, as the per-house
        # synthesis gave them
        cfg = ScenarioConfig(n_acl=2000, seed=42)
        houses = generate_population(cfg.population_spec(), cfg.seed, cfg.thermal,
                                     cfg.epsilon_margin_c)
        digests = {name: hashlib.sha256(col.tobytes()).hexdigest()
                   for name, col in {"index": houses.house_index, **houses.columns}.items()}
        assert houses.house_index.dtype == np.int64
        assert digests == {
            "index": "55f385cf2332d9056aaed6f496e7bebd2df52c6a9547ce2144b309432d4b0290",
            "floor_area": "32132174921aa9731f25b1fd4ea54aeca9f6315946654eb511d1f0b7bdd8bb33",
            "air_change_rate": "d25b23042d96c64b9712986da1e1a6fa0a5a4653c22b54a98539ae47bf06f05c",
            "window_wall_ratio":
                "4961cda3447bd5653eafc5734e20575868b5a109ba72636d53da3720b8382755",
            "shgc": "649c7d4d08ab9866faf06410deb953c6d962dc05b0224324c11d92e587708b4f",
            "eer": "1d39e568b24b016e9a9e2d958ceb9b26117883433e6d11dd9e52153fc9fc7af1",
            "r_roof": "3da0b66eea2ea62cfdd13cd580c605f7fe66950cc95e166b6388925c9ad042e6",
            "r_wall": "e47a3dec9bb53fd0fe66739e26b36dd507f16ea5b0710d43a0bb15242f6be774",
            "r_floor": "f617c1e52f51b5eac720b035e8220abc00017181514533f96443a4ec0ddf7083",
            "r_window": "9ca8503036b69ec27c1973bc1fc44ad14f108f6cbf96573a9c4eb8745e1cb8f2",
            "r_door": "a313e7f5c2cf5fc80dfe6de20983c384bfabcbfb9fe2939e57f09c477654b477",
            "c_air": "7f736fb93e20f8a89898a06d7d57979a6519554168e4ec4a9c5607b629ca4040",
            "c_mass": "63d9fcb12c0bbdf5110050d28cc86e2fbdc574093a9f848403e701eadc89d2df",
            "ua_envelope": "e6809dcc408d1a7048c9636e958efae791a4df35a29a4f10a4b56e3f6ba2d39f",
            "h_mass": "144723c24f1044c0e21a35edb3a3df14689a3414a3e3b879e5e44c62d0fce98f",
            "solar_aperture": "84123f66519fc4eb00d9ec468ac43dabaf2e1c38cbd643f8e01344cb2b80db35",
            "cooling_capacity":
                "6db47001e02450ea4276a09409e2a2a39c075f62ed03c29e06098e930be7751e",
            "rated_electrical_power":
                "c3ba8b6b5e18ac57ec9fcafd79c9ef3a314e2c6b0fdebaa221a127d83420560a",
            "t_set": "a5faeda529d1bb6ad34bb0a328edf78b0d9d38982555097fedfb90807a25d144",
            "deadband": "43ae120762a20a0ccc24fa321dc2249a82a0e91e20caa85a9d5a506eb69398ce",
            "t_high": "f24aa52bc254d76bb71c1a75a8d92e1a1b7d94849a4cd91193769fe733f57a26",
            "t_low": "7e0d6a3505acdefe2c80c7d0b52aa1065fd34ca3a308f7f8b256c2d21785ef40",
            "rated_power": "2ffcbf97e6e4652f901de801c66768667be196bb1e3d3c7c7c44621055207f44",
            "epsilon": "7b9312b3433a3852bafb7e9d404b3cca7905517404e8109001aa8b543e99bee3"}

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK + 1])
    @pytest.mark.parametrize("seed", [42, 7, 2**64 - 1])
    @pytest.mark.parametrize("name", ORACLE_SPECS)
    def test_columns_match_the_per_house_loop(self, name, seed, n, monkeypatch):
        monkeypatch.setattr(population, "DRAW_CHUNK", CHUNK)
        houses = generate_population(spec_with(n, **ORACLE_SPECS[name]), seed,
                                     epsilon_margin=0.07)
        expected = oracle_columns(name, seed)
        assert houses.columns.keys() == expected.keys()
        for column, values in expected.items():
            assert houses.columns[column].tobytes() == values[:n].tobytes(), column
        assert np.array_equal(houses.house_index, np.arange(n))

    def test_every_path_runs(self, monkeypatch):
        seen = collections.Counter()

        def count(owner, name, tally):
            method = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: tally(method(*args), *args))

        def quantiles(result, p):
            tail = np.abs(p - 0.5) > 0.425
            seen.update({"central quantile": np.count_nonzero(~tail),
                         "tail quantile": np.count_nonzero(tail)})
            return result
        count(rng, "normal_quantiles", quantiles)
        count(population, "_assemble", lambda result, *args: seen.update(
            {"next attempt": np.count_nonzero(result[1])}) or result)
        count(rng, "philox_raw", lambda result, seed, ids, blocks, first=1: seen.update(
            {"later counters": len(ids) if first > 1 else 0}) or result)
        monkeypatch.setattr(population, "DRAW_CHUNK", CHUNK)
        spec = spec_with(2000, **ORACLE_SPECS["wwr-replays"])
        houses = generate_population(spec, 42, epsilon_margin=0.07)
        assert houses == generate_population(spec, 42, epsilon_margin=0.07)
        assert set(+seen) == {"central quantile", "tail quantile", "next attempt",
                              "later counters"}
        # every house a check sent back reads its next counters
        assert seen["later counters"] == seen["next attempt"]

    @pytest.mark.parametrize("seed, house", [(0, 2), (5, 0)])
    def test_exhausted_redraws_name_the_same_house(self, seed, house):
        # about 1 % of these draws leave a wall, so some house runs out
        spec = spec_with(40, window_wall_ratio="uniform 0.0 100.0")
        with pytest.raises(PopulationError) as columnar:
            generate_population(spec, seed)
        with pytest.raises(PopulationError) as per_house:
            per_house_columns(spec, seed)
        assert str(columnar.value) == str(per_house.value) \
            == f"house {house}: no valid draw in {MAX_REDRAWS} attempts"

    def test_undrawable_spec_stops_after_one_house(self, monkeypatch):
        # no wall fraction past 1 passes a check: house 0 alone is walked
        # through its attempts before the rest of the fleet
        walked = []
        assemble = population._assemble
        monkeypatch.setattr(population, "_assemble",
                            lambda draws, *args: walked.append(len(draws["eer"]))
                            or assemble(draws, *args))
        with pytest.raises(PopulationError, match=f"^house 0: no valid draw in {MAX_REDRAWS} "):
            generate_population(spec_with(5000, window_wall_ratio="uniform 1.5 2.0"), 42)
        assert walked == [1] * MAX_REDRAWS

    def test_take_and_read_only(self):
        houses = generate_population(PopulationSpec(n=30), 4)
        some = houses.take(slice(3, 9))
        assert isinstance(some, Population) and len(some) == 6
        assert some.house_index.tolist() == list(range(3, 9))
        assert houses.take([-1]) == houses.take([29]) != houses.take([28])
        assert houses.take([2, 0, 2]).take([2]) == houses.take([2])
        assert houses.house_index.tolist() == list(range(30))
        with pytest.raises(ValueError):
            houses.columns["t_set"][0] = 0.0  # read-only


class TestArrayDraws:
    def test_quantiles_are_the_bits_of_the_stdlib(self):
        # AS241 as `statistics` spells it in Python, on p spread over the
        # truncated range, on the p a uniform's extremes give, and at and
        # beside the edges of the central branch
        gen = np.random.default_rng(29)
        edges = [0.075, 0.925, 0.5]
        p = np.concatenate([
            P_LO + (P_HI - P_LO) * gen.random(100_000),
            P_LO + (P_HI - P_LO) * np.array([0.0, 1.0 - 2.0**-53]),
            [P_LO, math.nextafter(P_LO, 1.0), math.nextafter(P_HI, 0.0), P_HI], edges,
            [math.nextafter(e, d) for e in edges for d in (0.0, 1.0)]])
        assert P_LO <= p.min() and p.max() <= P_HI
        got = rng.normal_quantiles(p)
        want = [NormalDist().inv_cdf(v) for v in p.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
        assert (rng.PHI_LO, rng.PHI_HI) == (P_LO, P_HI)
        # the literals are Phi(-3) and Phi(3), whose erf libm may round
        assert (NormalDist().cdf(-3.0), NormalDist().cdf(3.0)) == pytest.approx((P_LO, P_HI),
                                                                              rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_philox_matches_random_raw(self, seed):
        ids = [rng.HOUSE_STREAM_BASE + i for i in (0, CHUNK - 1, CHUNK, CHUNK + 1)] + [2**64 - 1]
        raw = rng.philox_raw(seed, np.array(ids, dtype=np.uint64), 4)
        assert raw.shape == (len(ids), 16) and raw.dtype == np.uint64
        later = rng.philox_raw(seed, np.array(ids, dtype=np.uint64), 2, 9)  # counters 9 and 10
        for row, next_row, stream_id in zip(raw, later, ids):
            expected = rng.substream(seed, stream_id).bit_generator.random_raw(40)
            assert np.array_equal(row, expected[:16]), stream_id
            assert np.array_equal(next_row, expected[32:40]), stream_id
        assert rng.philox_raw(seed, np.array([], dtype=np.uint64), 3).shape == (0, 12)
        many = rng.philox_raw(seed, rng.HOUSE_STREAM_BASE + np.arange(4100, dtype=np.uint64), 1)
        for i in (0, 2047, 2048, 4099):  # across the passes of 2 048 streams
            assert np.array_equal(many[i], rng.substream(
                seed, rng.HOUSE_STREAM_BASE + i).bit_generator.random_raw(4))


    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("seed", [42, 2**64 - 1])
    @pytest.mark.parametrize("spec", [
        lambda n: PopulationSpec(n=n),
        lambda n: spec_with(n, **dict.fromkeys(ALL_FIELDS, "uniform 0.0 1.0")),
        lambda n: spec_with(n, **dict.fromkeys(ALL_FIELDS, "normal 0.0 1.0")),
    ], ids=["default", "uniform", "normal"])
    def test_rows_match_the_per_house_loop(self, spec, seed, n):
        # each attempt of every house in one array pass, against a
        # generator per house read output by output through its attempts
        spec = spec(n)
        normal = [j for j, name in enumerate(ALL_FIELDS)
                  if spec.distributions[name].kind == "normal"]
        got = [population.standard_draws(seed, np.arange(n), attempt, normal)
               for attempt in range(3)]
        expected = np.empty((3, n, 16))  # outputs 14 and 15 unused
        for i in range(n):
            gen = rng.substream(seed, rng.HOUSE_STREAM_BASE + i)
            for attempt in range(3):
                for j, raw in enumerate(gen.bit_generator.random_raw(16).tolist()):
                    u = (raw >> 11) * 2.0**-53
                    expected[attempt, i, j] = (NormalDist().inv_cdf(P_LO + (P_HI - P_LO) * u)
                                               if j in normal else u)
        for attempt in range(3):
            assert got[attempt].shape == (n, 16)
            assert got[attempt].tobytes() == expected[attempt].tobytes(), attempt


def per_house_free_peak(houses, t_out, solar):
    total = 0.0
    rows = house_rows(houses)
    for h in rows:
        gains = h.ua_envelope * (t_out - h.t_set) + h.solar_aperture * solar
        duty = min(1.0, max(0.0, gains / h.cooling_capacity))
        total += duty * h.rated_power
    return min(total * PEAK_COINCIDENCE, sum(h.rated_power for h in rows))


class TestFreePeakEstimate:
    def test_zero_when_mild(self):
        houses = generate_population(PopulationSpec(n=20), 5)
        assert estimate_free_peak_kw(houses, 20.0, 0.0) == 0.0

    def test_bounded_by_total_rating(self):
        houses = generate_population(PopulationSpec(n=50), 5)
        total = total_rated_power_kw(houses)
        assert 0 < estimate_free_peak_kw(houses, *peak_weather()) < total
        assert estimate_free_peak_kw(houses, 60.0, 2000.0) == pytest.approx(total)

    @pytest.mark.parametrize("seed", [5, 42])
    def test_same_bits_as_the_per_house_loop(self, seed):
        houses = generate_population(PopulationSpec(n=700), seed)
        for weather in [peak_weather(), (20.0, 0.0), (60.0, 2000.0), (31.5, 450.0)]:
            assert estimate_free_peak_kw(houses, *weather).hex() \
                == per_house_free_peak(houses, *weather).hex()
        assert total_rated_power_kw(houses).hex() \
            == sum(h.rated_power for h in house_rows(houses)).hex()


class TestGenerateTraces:
    def test_deterministic(self):
        a = generate_traces(42, 800.0)
        b = generate_traces(42, 800.0)
        for field in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_solar_zero_at_midnight(self):
        t = generate_traces(1, 800.0, warmup_s=7200)
        midnight = np.flatnonzero((t.time_s - 7200) % 86400 == 0)
        assert np.all(t.solar_wm2[midnight] == 0.0)
        assert np.all(t.solar_wm2 >= 0.0)

    def test_wind_mean_reversion(self):
        t = generate_traces(9, 800.0, days=2)
        wind = t.p_wind_kw - np.mean(t.p_wind_kw)
        lag = 60  # 10 minutes at the 10 s cadence
        rho = float(np.dot(wind[:-lag], wind[lag:])
                    / math.sqrt(np.dot(wind[:-lag], wind[:-lag])
                                * np.dot(wind[lag:], wind[lag:])))
        assert 0.0 < rho < 1.0

    def test_wind_within_capacity(self):
        t = generate_traces(4, 800.0)
        assert np.all(t.p_wind_kw >= 0.0)
        assert np.all(t.p_wind_kw <= t.wind_capacity_kw)

    def test_powers_quantized(self):
        t = generate_traces(3, 800.0)
        for col in (t.p_load_kw, t.p_wind_kw):
            steps = col / POWER_QUANTUM_KW
            assert np.array_equal(steps, np.round(steps))

    def test_days_scale_length(self):
        one = generate_traces(2, 800.0, days=1, warmup_s=7200)
        three = generate_traces(2, 800.0, days=3, warmup_s=7200)
        assert len(three) * three.cadence_s == 7200 + 3 * 86400
        assert len(three) - len(one) == 2 * 86400 // 10

    def test_training_days_distinct(self):
        days = generate_training_traces(21, 800.0, days=3)
        assert len(days) == 3
        peaks = [float(np.max(d.t_out_c)) for d in days]
        assert len(set(peaks)) == 3


def scalar_ou_series(gen, n, dt, tau, sigma):
    """The OU recursion with one draw per step, as traces first wrote it."""
    decay = math.exp(-dt / tau)
    scale = sigma * math.sqrt(1.0 - decay * decay)
    out = np.empty(n)
    x = sigma * gen.standard_normal()
    for i in range(n):
        out[i] = x
        x = decay * x + scale * gen.standard_normal()
    return out


class TestOuSeries:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_series_and_next_draw_as_the_scalar_loop(self, seed):
        for n, dt, tau, sigma in ((0, 10, 600.0, 1.0), (1, 10, 600.0, 1.0),
                                  (9000, 10, traces.TOUT_NOISE_TAU_S, traces.TOUT_NOISE_STD_C),
                                  (777, 5, traces.WIND_FAST_TAU_S, 0.3)):
            gen, oracle = (rng.substream(seed, rng.TRACE_STREAM) for _ in range(2))
            got = traces._ou_series(gen, n, dt, tau, sigma)
            want = scalar_ou_series(oracle, n, dt, tau, sigma)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert gen.standard_normal() == oracle.standard_normal()
            assert gen.random() == oracle.random()


class TestTraceCsv:
    def test_round_trip_bytes(self):
        t = generate_traces(13, 900.0)
        buf = io.StringIO()
        write_traces(buf, t)
        text = buf.getvalue()
        assert text.startswith(TRACE_CSV_HEADER)
        loaded = read_traces(io.StringIO(text))
        buf2 = io.StringIO()
        write_traces(buf2, loaded)
        assert buf2.getvalue() == text

    def test_cadence_check(self):
        t = generate_traces(13, 900.0)
        buf = io.StringIO()
        write_traces(buf, t)
        with pytest.raises(ValueError):
            read_traces(io.StringIO(buf.getvalue()), cadence_s=60)

    def test_header_check(self):
        with pytest.raises(ValueError):
            read_traces(io.StringIO("wrong,header\n1,2,3,4,5\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, value):
        text = f"{TRACE_CSV_HEADER}\n0,30.0,0.0,100.0,5.0\n10,30.0,{value},100.0,5.0\n"
        with pytest.raises(ValueError, match="non-finite"):
            read_traces(io.StringIO(text))

    def test_short_rows_rejected(self):
        text = f"{TRACE_CSV_HEADER}\n0,30.0,0.0,100.0\n10,30.0,0.0,100.0\n"
        with pytest.raises(ValueError):
            read_traces(io.StringIO(text))

    def test_time_origin_rejected(self):
        # runs read row i as time i * cadence, so a file starting later
        # would shift every weather and load value
        text = f"{TRACE_CSV_HEADER}\n3600,30.0,0.0,100.0,5.0\n3610,30.0,0.0,100.0,5.0\n"
        with pytest.raises(ValueError, match="start at 0"):
            read_traces(io.StringIO(text))
