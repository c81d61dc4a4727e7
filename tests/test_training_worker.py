"""Free runs whose houses [n2:] a worker process joins late: same bytes,
no process and no pipe left.

`run_scenario` starts a fresh interpreter for a free run, training's
segmented runs included, once the run's second half is large enough,
and hands it that half at the first record row after it has imported.
These tests wait for the worker at a chosen record row, so the handover
happens there, and compare every output with the run stepped in one
process.  They use about 2 500 houses and short hand-made days, so each
test takes about a second.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

import tiesmooth
import tiesmooth.engine as engine
from tiesmooth.baseline import BaselineModel
from tiesmooth.engine import NumericAbortError, run_scenario, run_training_simulation
from tiesmooth.mgcc import ContractError
from tiesmooth.population import Population, PopulationError, aligned, generate_population
from tiesmooth.rng import ENROLLMENT_STREAM, substream
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import TraceSet, quantize_kw

N_HOUSES = 2500
N2 = 1248  # N_HOUSES // 2 less its remainder mod 8
WAIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Every wait in these tests, the worker's own included, ends in WAIT_S:
    a hung worker fails the test instead of blocking the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {WAIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WAIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def day_traces(total_s, t_out, solar, cadence_s=10):
    """One hand-made day: a ramp of outdoor temperature and sun."""
    n = total_s // cadence_s
    ramp = np.linspace(0.0, 1.0, n)
    return TraceSet(time_s=np.arange(n, dtype=np.int64) * cadence_s,
                    t_out_c=t_out + 4.0 * ramp, solar_wm2=solar * (1.0 - ramp),
                    p_load_kw=quantize_kw(np.full(n, 900.0)),
                    p_wind_kw=quantize_kw(np.full(n, 150.0)), cadence_s=cadence_s)


@pytest.fixture(scope="module")
def houses():
    return generate_population(PopulationSpec(n=N_HOUSES), 21)


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig(n_acl=N_HOUSES, seed=21, duration_s=600, warmup_s=600)


@pytest.fixture(scope="module")
def days(cfg):
    return [day_traces(cfg.total_s, t_out, solar)
            for t_out, solar in ((31.0, 600.0), (34.0, 750.0), (29.0, 400.0))]


@pytest.fixture(scope="module")
def cold(cfg):
    """A free run's day near freezing, so that houses leave their comfort
    band."""
    return day_traces(cfg.total_s, 0.0, 300.0)


def one_process(fn, *args):
    """fn(*args) with every house stepped in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_cpus", lambda: 1)
        return fn(*args)


@pytest.fixture(scope="module")
def free_run(cfg, houses, cold):
    return one_process(run_scenario, cfg, houses, cold, None, False)


@pytest.fixture
def workers(monkeypatch):
    """Every worker Popen started while the test runs, on two CPUs, with a
    floor low enough that a free run of N_HOUSES houses starts one."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    monkeypatch.setattr(engine, "WORKER_MIN_HOUSES", N_HOUSES - N2)
    yield started
    for proc in started:  # a test that failed early leaves no process either
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=WAIT_S)


def join_at(monkeypatch, poll):
    """Workers take their half at record row `poll` of the run: until then
    they are reported not ready, and there the run waits for them.
    Returns the times of the handovers."""
    ready, joined = engine._Worker.ready, []

    def ready_at_poll(self, timeout=0.0):
        polls = vars(self).setdefault("polls", [])
        polls.append(None)
        return len(polls) > poll and ready(self, None)

    def start(self, fn, *args):
        joined.append(args[2])
        return start_job(self, fn, *args)

    start_job = engine._Worker.start
    monkeypatch.setattr(engine._Worker, "ready", ready_at_poll)
    monkeypatch.setattr(engine._Worker, "start", start)
    return joined


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_bytes(got, want):
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        elif field.name == "cycle_records":
            assert [repr(astuple(r)) for r in a] == [repr(astuple(r)) for r in b]
        else:
            assert repr(a) == repr(b), field.name


def enrolled(cfg, n_houses, n_days):
    gen = substream(cfg.seed, ENROLLMENT_STREAM)
    return [n_houses] + [max(1, int(round(float(gen.uniform(0.7, 1.0)) * n_houses)))
                         for _ in range(n_days - 1)]


def segmented_columns(cfg, houses, days):
    """The oracle: every day stepped in this process as one segmented run."""
    sizes = enrolled(cfg, len(houses), len(days))
    stacked = TraceSet(time_s=days[0].time_s, cadence_s=days[0].cadence_s,
                       **{name: np.stack([getattr(d, name) for d in days], axis=1)
                          for name in ("t_out_c", "solar_wm2", "p_load_kw", "p_wind_kw")})
    run = one_process(lambda: run_scenario(
        replace(cfg, duration_s=len(days[0]) * 10 - cfg.warmup_s),
        houses.take(np.concatenate([np.arange(n) for n in sizes])),
        stacked, None, controlled=False, _segments=sizes))
    rows = run.metric_slice()
    rated = houses.columns["rated_power"]
    return [np.concatenate(c) for c in zip(*(
        (d.t_out_c[rows], d.solar_wm2[rows],
         np.full(rows.stop - rows.start, float(np.sum(rated[:n]))), run.p_ac_actual[rows, k])
        for k, (d, n) in enumerate(zip(days, sizes))))]


@pytest.mark.parametrize("poll", [0, 7], ids=["first_row", "later_row"])
def test_free_run_gives_the_bytes_of_one_part(cfg, houses, cold, free_run, workers,
                                              monkeypatch, poll):
    joined = join_at(monkeypatch, poll)
    result = run_scenario(cfg, houses, cold, None, controlled=False)
    assert joined == [poll * cfg.record_cycle_s]
    assert len(workers) == 1 and workers[0].returncode == 0
    assert result.comfort_violation_acl_min > 0.0 and result.n_on.max() > 0
    assert_same_bytes(result, free_run)
    assert_no_child()


def test_columns_are_the_bytes_of_one_segmented_run(cfg, houses, days, workers,
                                                    monkeypatch):
    # three days of 2 500, 2 226 and 2 341 houses: n2 falls inside the
    # second, which both processes meter
    monkeypatch.setattr(engine, "WORKER_MIN_HOUSES", 2000)
    joined = join_at(monkeypatch, 3)
    samples = run_training_simulation(cfg, houses, days)
    assert joined == [3 * cfg.record_cycle_s]
    assert len(workers) == 1 and workers[0].returncode == 0
    expected = segmented_columns(cfg, houses, days)
    assert len(samples.p_ac_free) == 3 * (cfg.duration_s // 10)
    assert max(samples.p_ac_free) > 0.0
    for got, want in zip(samples, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_small_shares_stay_in_this_process(cfg, houses, cold, free_run, workers,
                                           monkeypatch):
    monkeypatch.setattr(engine, "WORKER_MIN_HOUSES", N_HOUSES - N2 + 1)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    monkeypatch.setattr(engine, "WORKER_MIN_HOUSES", N_HOUSES - N2)
    monkeypatch.setattr(engine, "_cpus", lambda: 1)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    assert workers == []


def test_controlled_runs_start_no_worker(cfg, houses, days, workers):
    model = BaselineModel(coefficients=(3000.0, 0, 0, 0, 0, 0, 0, 0))
    run_scenario(cfg, houses, days[0], model)
    assert workers == []


def test_worker_share_aborts_with_its_cycle(cfg, houses, cold, workers, monkeypatch):
    # only houses of the worker's half go non-finite, before the handover
    join_at(monkeypatch, 5)
    lit = np.zeros(N_HOUSES)
    lit[-10:] = houses.columns["solar_aperture"][-10:]
    blazing = Population(houses.house_index, {**houses.columns, "solar_aperture": aligned(lit)})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericAbortError) as err:
            run_scenario(cfg, blazing, replace(cold, solar_wm2=np.full(len(cold), 1e308)),
                         None, controlled=False)
    assert err.value.cycle == cfg.total_s // cfg.control_cycle_s
    assert len(workers) == 1 and workers[0].returncode == 0
    assert_no_child()


@pytest.mark.parametrize("error", [KeyboardInterrupt(), NumericAbortError(7)],
                         ids=["interrupt", "numeric_abort"])
def test_worker_killed_when_own_share_raises(cfg, houses, cold, workers, monkeypatch, error):
    joined = join_at(monkeypatch, 2)
    thermostat, calls = engine._thermostat_slice, []

    def failing(fleet, ws):  # in this process only, after the handover
        calls.append(fleet.n)
        if len(calls) == 10:
            raise error
        thermostat(fleet, ws)

    monkeypatch.setattr(engine, "_thermostat_slice", failing)
    with pytest.raises(type(error)):
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert joined == [20] and calls[-1] == N2
    assert len(workers) == 1
    assert workers[0].poll() is not None  # killed and reaped, not left running
    assert workers[0].returncode in (0, -signal.SIGKILL)
    assert_no_child()


def test_run_that_ends_before_the_worker_is_ready(cfg, houses, cold, free_run, workers,
                                                  monkeypatch):
    monkeypatch.setattr(engine._Worker, "ready", lambda self, timeout=0.0: False)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    assert len(workers) == 1 and workers[0].returncode == -signal.SIGKILL
    assert_no_child()


def test_run_whose_worker_exits_before_it_is_ready(cfg, houses, cold, workers,
                                                   monkeypatch):
    monkeypatch.setattr(engine, "_WORKER_MAIN", "import os; os._exit(5)")
    join_at(monkeypatch, 0)
    with pytest.raises(RuntimeError, match="exited with status 5 and no result"):
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert len(workers) == 1 and workers[0].returncode == 5
    assert_no_child()


@pytest.mark.parametrize("sunlit", [slice(0, 10), slice(-10, None)],
                         ids=["own_half", "worker_half"])
def test_floating_point_error_under_the_callers_errstate(cfg, houses, cold, workers,
                                                         monkeypatch, sunlit):
    # only the sunlit houses have an aperture, and the sun overflows it
    # from the record row after the handover on
    join_at(monkeypatch, 2)
    lit = np.zeros(N_HOUSES)
    lit[sunlit] = houses.columns["solar_aperture"][sunlit]
    blazing = Population(houses.house_index, {**houses.columns, "solar_aperture": aligned(lit)})
    solar = cold.solar_wm2.copy()
    solar[3:] = 1e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_scenario(cfg, blazing, replace(cold, solar_wm2=solar), None, controlled=False)
    assert len(workers) == 1 and workers[0].poll() is not None
    assert_no_child()


@pytest.mark.parametrize("error", [
    NumericAbortError(1560), ContractError("a hysteresis band starts at or above"),
    ValueError("trace cadence must equal the record cycle"),
    PopulationError("house 3: no valid draw in 100 attempts"), MemoryError(),
], ids=lambda e: type(e).__name__)
def test_worker_exception_raised_with_its_type(workers, error):
    with engine._worker() as worker:
        assert worker.ready(None)
        worker.start(exec, "raise error", {"error": error})
        with pytest.raises(type(error)) as err:
            worker.result()
    assert str(err.value) == str(error)
    assert getattr(err.value, "cycle", None) == getattr(error, "cycle", None)
    assert len(workers) == 1 and workers[0].poll() == 0


def test_worker_without_a_result_is_an_error(workers):
    with engine._worker() as worker:
        assert worker.ready(None)
        worker.start(os._exit, 3)
        with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
            worker.result()
    assert workers[0].poll() == 3


def test_worker_gone_before_reading_its_inputs(workers, monkeypatch):
    monkeypatch.setattr(engine, "_WORKER_MAIN", "import os; os._exit(5)")
    with engine._worker() as worker:
        with pytest.raises(RuntimeError, match="exited with status 5 and no result"):
            worker.ready(None)
    assert workers[0].poll() == 5


def test_result_larger_than_a_pipe(workers):
    with engine._worker() as worker:
        assert worker.ready(None)
        worker.start(np.arange, 200_000)
        assert np.array_equal(worker.result(), np.arange(200_000))
    assert workers[0].poll() == 0


def test_numeric_abort_survives_pickling():
    error = pickle.loads(pickle.dumps(NumericAbortError(1560)))
    assert type(error) is NumericAbortError and error.cycle == 1560
    assert str(error) == "non-finite house state at control cycle 1560"


def pairwise_split_mismatches():
    """Aligned arrays of many lengths whose np.add.reduce is not that of
    their two halves at n2 added."""
    gen = np.random.default_rng(5)
    bad = []
    for n in [*range(129, 400, 7), 4_000, 5_003, 25_001, 50_000, 100_003]:
        a = aligned(gen.uniform(-1.0, 1.0, n))
        n2 = n // 2 - n // 2 % 8
        if np.add.reduce(a) != np.add.reduce(a[:n2]) + np.add.reduce(a[n2:]):
            bad.append(n)
    return bad


# The child checks the split on the CPU features it was left with and
# reports them with its mismatches.
_SPLIT_CHILD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_training_worker import pairwise_split_mismatches
print(json.dumps({"features": sorted(f for f in __cpu_dispatch__ if __cpu_features__[f]),
                  "mismatches": pairwise_split_mismatches()}))
"""


class TestPairwiseSplit:
    """Each process adds up its own half of a record's prices, and the two
    sums add to the one-process sum only because NumPy's pairwise sum
    splits a row of more than 128 values exactly at n2."""

    def test_in_this_process(self):
        assert pairwise_split_mismatches() == []

    # NumPy 2.4's names: the AVX-512 and AVX2 kernels switched off in turn
    @pytest.mark.parametrize("disabled", [
        ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
        ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
    ], ids=["avx2", "baseline"])
    def test_on_other_kernels(self, disabled):
        path = [str(Path(tiesmooth.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                   NPY_DISABLE_CPU_FEATURES=",".join(disabled))
        proc = subprocess.run([sys.executable, "-c", _SPLIT_CHILD], env=env,
                              capture_output=True, text=True, timeout=WAIT_S - 10)
        if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip(f"this NumPy cannot disable {', '.join(disabled)}")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        if set(report["features"]) & set(disabled):
            pytest.skip(f"this NumPy ignored NPY_DISABLE_CPU_FEATURES={','.join(disabled)}")
        assert report["mismatches"] == []


@pytest.mark.skipif(sys.flags.dev_mode, reason="already running under -X dev")
def test_module_under_dev_mode_closes_every_pipe():
    # an unclosed pipe or a Popen dropped while its process runs warns
    # only from a finalizer; under these flags that fails the run
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest",
         "-q", "-p", "no:cacheprovider", "-W", "error::pytest.PytestUnraisableExceptionWarning",
         __file__],
        capture_output=True, text=True, timeout=WAIT_S - 10)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ResourceWarning" not in proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" in proc.stdout
