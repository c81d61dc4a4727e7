"""Fleet synthesis and input-trace generation."""

import collections
import functools
import hashlib
import io
import math

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

    def test_quantize_power(self):
        assert quantize_power_kw(2.73072) * 1024 == round(2.73072 * 1024)
        assert quantize_power_kw(0.0) == 0.0


class TestHouseStream:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_is_checked(self, seed):
        with pytest.raises(ValueError, match="seed"):
            rng.house_stream(seed, 0)


def per_house_columns(spec, seed, consts=DEFAULT_DERIVATION, epsilon_margin=0.05):
    """The per-house synthesis the columns replace, as columns: a fresh
    generator per house, each field drawn by `Dist.draw`, the fault
    functions checked on Python floats stage by stage, the rating rounded
    by Python's `round`, the whole house drawn again while a check fails."""
    rows = []
    for i in range(spec.n):
        gen = rng.house_stream(seed, i)
        for _ in range(MAX_REDRAWS):
            values = {name: spec.distributions[name].draw(gen)
                      for name in HOUSE_FIELDS + CONTROLLER_FIELDS}
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
    # every field normal, so more attempts draw a field past its truncation
    "truncation-heavy": {"floor_area": "normal 132.0 15.0", "shgc": "normal 0.36 0.04",
                         "eer": "normal 3.5 0.15", "deadband": "normal 0.3 0.03",
                         "t_high": "normal 2.5 0.15", "t_low": "normal 2.5 0.15"},
    # a wall fraction past 1 fails a check: houses take several attempts
    # and read past their first 20 outputs
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
            "air_change_rate": "7de0a5854059949f14062ff0f2ea480d582a8ef1efc61c74097cbe4df78e9405",
            "window_wall_ratio":
                "d144bcd24354d79f7c7c472d32455af9bf41ac98d921f89be4ef944a6e58b744",
            "shgc": "79ddf5af1a8a62ab2246bc0421bfa4c57d54c63954a15fccee84586724ef35d2",
            "eer": "d65a795fa69e8eb2be4bde7b7a2c44f2f0ae2757c0c38e32bb0749185ad0d653",
            "r_roof": "947a7789e2a99a93cae1f3464c43c9d7fb35a108827eed543cdbe2d62ba50f9b",
            "r_wall": "4b50a4c0939bbe4d90bddd8a65fad68ee11417e44e3cca4b1f688fee2f19bc02",
            "r_floor": "89bf3e710cc98323a37775b802cfa2cf58567133711a387cf48f2ed6cb03d076",
            "r_window": "6a9e79a8aa48cfaa29902d1538ee1801141990be986403f8e91298d051b86e97",
            "r_door": "045d3331551c46ea26e6d3f938b24de74d66a451d91b9870eff2213d8f8aab67",
            "c_air": "7f736fb93e20f8a89898a06d7d57979a6519554168e4ec4a9c5607b629ca4040",
            "c_mass": "63d9fcb12c0bbdf5110050d28cc86e2fbdc574093a9f848403e701eadc89d2df",
            "ua_envelope": "b82fcc0a59618e0cbd2c1755fff4f01a01c183bfe9d92c7e7ba176086261dee7",
            "h_mass": "b1b08ce993719c5fb4a7f9233271de38974967fd0423ca8387d9c98dcb6b8cc2",
            "solar_aperture": "5b85548f770c1409674132a6c5877be1acab504477459ad1337e5afb7e79e623",
            "cooling_capacity":
                "8c9a312845b5e846bf02dc94d532482f77249dafd3542151a3c67a8dee984cf3",
            "rated_electrical_power":
                "a09609dd6e3417bf4d28ab4bc3bb3bf2c4115e34fffa2834d9be2163151660d3",
            "t_set": "83838c9b73de09b9c39f1b8fdb207742132150d54606b30d00d9897cc4f54e61",
            "deadband": "a3641a7dcdbdb0fdc974b429e38657e5047720c537bd9657373283dc7f600948",
            "t_high": "6b0b864c63c267cf25b7b051514718bcde1e4ff9436568b54a270d151c969811",
            "t_low": "6bd98478c58f7440478f634b1967b7c2f9b1fcb06ef45b0e438e2b80ad214f03",
            "rated_power": "cad7d22f27599d174372b026d969b776196245466565b864c0b2f3b180cad615",
            "epsilon": "8f2c408b2c606d5606f2f7dd070cbbc256893b3970a4fd672cf41043b3b729a6"}

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
        rng.ziggurat_normals(np.zeros(1, dtype=np.uint64), rng.house_stream(0, 0))  # the table
        seen = collections.Counter()

        def count(owner, name, tally):
            method = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: tally(method(*args), *args))

        def normals(result, streams, rows, pos, gen):
            taken = result[1] - pos
            seen["one-draw normal"] += np.count_nonzero(taken == 1)
            seen["NumPy normal"] += np.count_nonzero(taken > 1)
            return result
        count(rng.Streams, "standard_normals", normals)
        count(rng, "_position", lambda result, gen: seen.update(["count read"]) or result)
        count(Dist, "kept", lambda result, *args: seen.update(
            {"truncated": np.count_nonzero(~result)}) or result)
        count(population, "_assemble", lambda result, *args: seen.update(
            {"next attempt": np.count_nonzero(result[1])}) or result)
        count(rng, "philox_raw", lambda result, seed, ids, blocks, first=1: seen.update(
            {"next block": np.count_nonzero(np.asarray(first) > 1)}) or result)
        monkeypatch.setattr(population, "DRAW_CHUNK", CHUNK)
        spec = spec_with(2000, **ORACLE_SPECS["wwr-replays"])
        houses = generate_population(spec, 42, epsilon_margin=0.07)
        assert houses == generate_population(spec, 42, epsilon_margin=0.07)
        assert set(seen) == {"one-draw normal", "NumPy normal", "count read", "truncated",
                             "next attempt", "next block"}
        # the NumPy draws whose count was read are few
        assert 0 < seen["count read"] < seen["NumPy normal"] / 5

    @pytest.mark.parametrize("seed, house", [(0, 0), (5, 5)])
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

    def test_overflowing_range_raises_as_the_per_house_loop(self):
        # every drawn t_low is +inf, which no controller check rejects, so
        # only the finiteness flag sends the houses to the per-house loop
        spec = spec_with(10, t_low="uniform -1e308 1e308")
        with pytest.raises(OverflowError, match="range exceeds valid bounds"):
            generate_population(spec, 3)
        with pytest.raises(OverflowError, match="range exceeds valid bounds"):
            per_house_columns(spec, 3)

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


def position(gen):
    """How many outputs a Philox generator has taken, from its counter
    and buffer position."""
    state = gen.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def per_house_draws(spec, seed):
    """Each house's first-attempt standard variates, one scalar draw per
    field from a fresh generator on the house's stream, and how many
    outputs each house took."""
    std, taken = np.empty((spec.n, len(ALL_FIELDS))), np.empty(spec.n, dtype=np.intp)
    for i, row in enumerate(std):
        gen = rng.house_stream(seed, i)
        for j, name in enumerate(ALL_FIELDS):
            uniform = spec.distributions[name].kind == "uniform"
            row[j] = gen.random() if uniform else gen.standard_normal()
        taken[i] = position(gen)
    return std, taken


def drawn_from(seed, stream_id, block):
    """`standard_normal` on a stream whose first four outputs are `block`,
    how many outputs it took and the output after them."""
    gen = rng.substream(seed, stream_id)
    state = gen.bit_generator.state
    state["buffer"], state["buffer_pos"] = np.array(block, dtype=np.uint64), 0
    state["state"]["counter"] = np.array([1, 0, 0, 0], dtype=np.uint64)
    gen.bit_generator.state = state
    x = gen.standard_normal()
    return x, position(gen), int(gen.bit_generator.random_raw())


def word(strip, magnitude, sign=0):
    return magnitude << 9 | sign << 8 | strip


TOP = 2**52 - 1  # the largest magnitude: off every strip's one-draw path


class TestArrayDraws:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_philox_matches_random_raw(self, seed):
        ids = [rng.HOUSE_STREAM_BASE + i for i in (0, CHUNK - 1, CHUNK, CHUNK + 1)] + [2**64 - 1]
        raw = rng.philox_raw(seed, np.array(ids, dtype=np.uint64), 4)
        assert raw.shape == (len(ids), 16) and raw.dtype == np.uint64
        first = np.array([1, 2, 5, 9, 33], dtype=np.uint64)  # a first counter per stream
        later = rng.philox_raw(seed, np.array(ids, dtype=np.uint64), 2, first)
        for row, next_row, stream_id, at in zip(raw, later, ids, first.tolist()):
            expected = rng.substream(seed, stream_id).bit_generator.random_raw(max(16, 4 * at + 4))
            assert np.array_equal(row, expected[:16]), stream_id
            assert np.array_equal(next_row, expected[4 * at - 4:4 * at + 4]), stream_id
        assert rng.philox_raw(seed, np.array([], dtype=np.uint64), 3).shape == (0, 12)
        many = rng.philox_raw(seed, rng.HOUSE_STREAM_BASE + np.arange(4100, dtype=np.uint64), 1)
        for i in (0, 2047, 2048, 4099):  # across the passes of 2 048 streams
            assert np.array_equal(many[i], rng.house_stream(seed, i).bit_generator.random_raw(4))

    def test_bound_never_certifies_a_slow_draw(self):
        gen = rng.house_stream(0, 0)
        rng.ziggurat_normals(np.zeros(1, dtype=np.uint64), gen)  # reads the table
        wi, k = (table[:256] for table in rng._ZIGGURAT)
        assert np.flatnonzero(k == 0).tolist() == [1]
        assert np.array_equal(rng._ZIGGURAT[0][256:], -wi) and np.array_equal(rng._ZIGGURAT[1][256:], k)
        for idx in range(256):
            for rabs in {max(int(k[idx]) - 1, 0), int(k[idx]), int(k[idx]) + 1}:
                for sign in (0, 1):
                    raw = word(idx, rabs, sign)
                    x, over = rng.ziggurat_normals(np.array([raw], dtype=np.uint64), gen)
                    assert over[0] == rabs - k[idx], raw
                    # certified below the bound, and NumPy takes one output
                    # there; above it NumPy takes more (its limit is k or k + 1)
                    value, taken, _ = drawn_from(0, rng.HOUSE_STREAM_BASE, [raw, 0, 0, 0])
                    if over[0] < 0:
                        assert (taken, value.hex()) == (1, x[0].hex()), raw
                    elif over[0] > 0:
                        assert taken > 1, raw

    @pytest.mark.parametrize("seed", [3, 2**64 - 1])
    def test_slow_draws_take_what_numpy_takes(self, seed):
        cases = {
            # strip 0's tail: accepted by the first pair of uniforms, or not
            "tail accepts": [word(0, TOP), 0, 2**64 - 1, 0],
            "tail accepts, negative": [word(0, TOP, 1), 0, 2**64 - 1, 0],
            "tail rejects": [word(0, TOP), 2**64 - 1, 0, 2**64 - 1],
            "tail rejects, negative": [word(0, TOP, 1), 2**64 - 1, 0, 7],
            # strip 1 is never on the one-draw path
            "strip 1": [word(1, 0), 2**64 - 1, 0, 0],
            "strip 1, negative": [word(1, 3, 1), 0, 0, 0],
            # a wedge accepted, or rejected before a one-draw value, or
            # before another wedge (a chain)
            "wedge accepts": [word(100, TOP), 0, 0, 0],
            "wedge rejects": [word(100, TOP), 2**64 - 1, word(7, 5), 0],
            "wedge rejects, negative": [word(250, TOP, 1), 2**64 - 1, word(7, 5, 1), 0],
            "rejects, rejects": [word(100, TOP), 2**64 - 1, word(200, TOP), 2**64 - 1],
            "rejects, accepts": [word(3, TOP), 2**64 - 1, word(200, TOP, 1), 0],
            "rejects, then the tail": [word(40, TOP), 2**64 - 1, word(0, TOP), 0],
            "strip 1 value again": [word(2, TOP), 2**64 - 1, word(1, 0), 0],
            # accepted or rejected before a one-draw value equal to the
            # first (1.3408...)
            "accepts, same value next": [word(100, 4481155737199612), 0,
                                         word(200, 2870735716381794), 0],
            "rejects, same value": [word(100, 4481155737199612), 2**64 - 1,
                                    word(200, 2870735716381794), 0],
        }
        # at the bound k itself, NumPy's own limit decides: on some strips
        # it takes one output there
        gen = rng.house_stream(seed, 0)
        rng.ziggurat_normals(np.zeros(1, dtype=np.uint64), gen)  # reads the table
        k = rng._ZIGGURAT[1]
        one = next(idx for idx in range(2, 256) if drawn_from(
            seed, rng.HOUSE_STREAM_BASE, [word(idx, int(k[idx])), 0, 0, 0])[1] == 1)
        cases["one output at the bound"] = [word(one, int(k[one])), 0, 0, 0]
        cases["more at the bound"] = [word(2, int(k[2])), 2**64 - 1, word(7, 5), 0]
        ids = rng.HOUSE_STREAM_BASE + np.arange(len(cases), dtype=np.uint64)
        streams = rng.Streams(seed, ids)
        streams.raw[:, :4] = np.array(list(cases.values()), dtype=np.uint64)  # counter 1
        rows, start = np.arange(len(cases)), np.zeros(len(cases), dtype=np.intp)
        x, pos = streams.standard_normals(rows, start, gen)
        after = streams.raw[rows, streams.columns(rows, pos)]
        counts = set()
        for i, (name, block) in enumerate(cases.items()):
            value, taken, next_word = drawn_from(seed, int(ids[i]), block)
            assert (x[i].hex(), pos[i], int(after[i])) == (value.hex(), taken, next_word), name
            counts.add(taken)
        assert {1, 2, 3}.issubset(counts) and max(counts) > 4

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("seed", [42, 2**64 - 1])
    @pytest.mark.parametrize("spec", [
        lambda n: PopulationSpec(n=n),
        lambda n: spec_with(n, **dict.fromkeys(ALL_FIELDS, "uniform 0.0 1.0")),
        lambda n: spec_with(n, **dict.fromkeys(ALL_FIELDS, "normal 0.0 1.0")),
    ], ids=["default", "uniform", "normal"])
    def test_rows_match_the_per_house_loop(self, spec, seed, n):
        # one walk over the houses' streams, field by field, as the
        # population's first attempts read them
        spec, gen = spec(n), rng.house_stream(seed, 0)
        streams = rng.Streams(seed, rng.HOUSE_STREAM_BASE + np.arange(n, dtype=np.uint64))
        rows, pos = np.arange(n), np.zeros(n, dtype=np.intp)
        std = np.empty((n, len(ALL_FIELDS)))
        for j, name in enumerate(ALL_FIELDS):
            if spec.distributions[name].kind == "uniform":
                std[:, j], pos = streams.uniforms(rows, pos), pos + 1
            else:
                std[:, j], pos = streams.standard_normals(rows, pos, gen)
        expected, taken = per_house_draws(spec, seed)
        assert std.tobytes() == expected.tobytes()
        assert np.array_equal(pos, taken)


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
