"""Training days stepped in a worker process: same bytes, no process left.

`run_training_simulation` hands the smaller share of each group of
training days to a fresh interpreter once that share is large enough.
These tests use about 2 500 houses and short hand-made days, so the
worker engages and each test takes about a second.
"""

import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tiesmooth.engine as engine
from tiesmooth.engine import NumericAbortError, run_scenario, run_training_simulation
from tiesmooth.mgcc import ContractError
from tiesmooth.population import PopulationError, generate_population
from tiesmooth.rng import ENROLLMENT_STREAM, substream
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import TraceSet, quantize_kw

N_HOUSES = 2500
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
    """One hand-made training day: a ramp of outdoor temperature and sun."""
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


@pytest.fixture
def workers(monkeypatch):
    """Every worker Popen started while the test runs, on two CPUs."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    yield started
    for proc in started:  # a test that failed early leaves no process either
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=WAIT_S)


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
    run = run_scenario(replace(cfg, duration_s=len(days[0]) * 10 - cfg.warmup_s),
                       houses.take(np.concatenate([np.arange(n) for n in sizes])),
                       stacked, None, controlled=False, _segments=sizes)
    rows = run.metric_slice()
    rated = houses.columns["rated_power"]
    return [np.concatenate(c) for c in zip(*(
        (d.t_out_c[rows], d.solar_wm2[rows],
         np.full(rows.stop - rows.start, float(np.sum(rated[:n]))), run.p_ac_actual[rows, k])
        for k, (d, n) in enumerate(zip(days, sizes))))]


def test_columns_are_the_bytes_of_one_segmented_run(cfg, houses, days, workers):
    samples = run_training_simulation(cfg, houses, days)
    assert len(workers) == 1 and workers[0].poll() is not None
    assert workers[0].returncode == 0
    expected = segmented_columns(cfg, houses, days)
    assert len(samples.p_ac_free) == 3 * (cfg.duration_s // 10)
    assert max(samples.p_ac_free) > 0.0
    for got, want in zip(samples, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_small_shares_stay_in_this_process(cfg, houses, days, workers):
    few = houses[:engine.WORKER_MIN_HOUSES - 1]
    samples = run_training_simulation(replace(cfg, n_acl=len(few)), few, days)
    assert workers == []
    for got, want in zip(samples, segmented_columns(cfg, few, days)):
        assert got.tobytes() == want.tobytes()


def test_shares_hold_whole_days_largest_first():
    sizes = [5000, 4500, 4000, 100]
    assert engine._shares(range(4), sizes) == ([1, 2], [0, 3])
    assert engine._shares([2], sizes) == ([2], [])
    assert engine._shares([0, 1], [7, 7]) == ([0], [1])


def test_worker_share_aborts_with_its_cycle(cfg, houses, days, workers):
    _, there = engine._shares(range(3), enrolled(cfg, len(houses), 3))
    broken = list(days)
    for i in there:  # only the worker's days go non-finite
        broken[i] = replace(days[i], t_out_c=np.full(len(days[i]), np.inf))
    with pytest.raises(NumericAbortError) as err:
        run_training_simulation(cfg, houses, broken)
    assert err.value.cycle == cfg.total_s // cfg.control_cycle_s
    assert len(workers) == 1 and workers[0].returncode == 0


@pytest.mark.parametrize("error", [KeyboardInterrupt(), NumericAbortError(7)],
                         ids=["interrupt", "numeric_abort"])
def test_worker_killed_when_own_share_raises(cfg, houses, days, workers, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(engine, "run_scenario", failing)  # in this process only
    with pytest.raises(type(error)):
        run_training_simulation(cfg, houses, days)
    assert len(workers) == 1
    assert workers[0].poll() is not None  # killed and reaped, not left running
    assert workers[0].returncode in (0, -signal.SIGKILL)


@pytest.mark.parametrize("error", [
    NumericAbortError(1560), ContractError("a hysteresis band starts at or above"),
    ValueError("trace cadence must equal the record cycle"),
    PopulationError("house 3: no valid draw in 100 attempts"), MemoryError(),
], ids=lambda e: type(e).__name__)
def test_worker_exception_raised_with_its_type(workers, error):
    with engine._worker(exec, "raise error", {"error": error}) as result:
        with pytest.raises(type(error)) as err:
            result()
    assert str(err.value) == str(error)
    assert getattr(err.value, "cycle", None) == getattr(error, "cycle", None)
    assert len(workers) == 1 and workers[0].poll() == 0


def test_worker_without_a_result_is_an_error(workers):
    with engine._worker(os._exit, 3) as result:
        with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
            result()
    assert workers[0].poll() == 3


def test_worker_gone_before_reading_its_inputs(workers, monkeypatch):
    monkeypatch.setattr(engine, "_WORKER_MAIN", "import os; os._exit(5)")
    with engine._worker(np.zeros, 1, np.zeros(1 << 20)) as result:  # 8 MB: the pipe breaks
        with pytest.raises(RuntimeError, match="exited with status 5 and no result"):
            result()
    assert workers[0].poll() == 5


def test_result_larger_than_a_pipe(workers):
    with engine._worker(np.arange, 200_000) as result:
        assert np.array_equal(result(), np.arange(200_000))
    assert workers[0].poll() == 0


def test_numeric_abort_survives_pickling():
    error = pickle.loads(pickle.dumps(NumericAbortError(1560)))
    assert type(error) is NumericAbortError and error.cycle == 1560
    assert str(error) == "non-finite house state at control cycle 1560"


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
