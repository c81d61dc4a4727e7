"""Free runs whose houses [n2:] a forked child steps: same bytes, no
process and no pipe left.

`run_scenario` forks a child for a free run, training's segmented runs
included, once the run's second half is large enough; the child steps
that half from the first step to the end.  These tests compare every
output with the run stepped in one process.  They use about 2 500 houses
and short hand-made days, so each test takes about a second.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import warnings
from contextlib import suppress
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
from tiesmooth.thermal import quantize_kw
from tiesmooth.traces import TraceSet

N_HOUSES = 2500
N2 = 1248  # N_HOUSES // 2 less its remainder mod 8
WAIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Every wait in these tests ends in WAIT_S: a hung child fails the
    test instead of blocking the suite."""
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


class Children:
    """The pid of every child forked, and the exit status of every child
    waited for, by pid."""

    def __init__(self):
        self.pids = []
        self.status = {}


@pytest.fixture
def children(monkeypatch):
    """Every child forked while the test runs, on two CPUs, with a floor
    low enough that a free run of N_HOUSES houses forks."""
    seen, fork, waitpid = Children(), os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:
            seen.pids.append(pid)
        return pid

    def recorded_waitpid(pid, options):
        got, status = waitpid(pid, options)
        if got:
            seen.status[got] = os.waitstatus_to_exitcode(status)
        return got, status

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    monkeypatch.setattr(engine, "FORK_MIN_HOUSES", N_HOUSES - N2)
    yield seen
    for pid in seen.pids:  # a test that failed early leaves no process either
        with suppress(ChildProcessError):  # reaped already
            if waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                waitpid(pid, 0)


def blazing(houses, sunlit):
    """`houses` with a solar aperture only in the `sunlit` ones."""
    lit = np.zeros(N_HOUSES)
    lit[sunlit] = houses.columns["solar_aperture"][sunlit]
    return Population(houses.house_index, {**houses.columns, "solar_aperture": aligned(lit)})


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


def test_free_run_gives_the_bytes_of_one_part(cfg, houses, cold, free_run, children):
    result = run_scenario(cfg, houses, cold, None, controlled=False)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert result.comfort_violation_acl_min > 0.0 and result.n_on.max() > 0
    assert_same_bytes(result, free_run)
    assert_no_child()


def test_run_of_one_record_gives_the_bytes_of_one_part(cfg, houses, children):
    # the shortest run: no warm-up, two steps, one record row
    short = replace(cfg, duration_s=cfg.record_cycle_s, warmup_s=0)
    day = day_traces(short.total_s, 33.0, 700.0)
    want = one_process(run_scenario, short, houses, day, None, False)
    assert len(want.time_s) == 1 and want.n_on.max() > 0
    assert_same_bytes(run_scenario(short, houses, day, None, controlled=False), want)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert_no_child()


def test_columns_are_the_bytes_of_one_segmented_run(cfg, houses, days, children,
                                                    monkeypatch):
    # three days of 2 500, 2 226 and 2 341 houses: n2 falls inside the
    # second, which both processes meter
    monkeypatch.setattr(engine, "FORK_MIN_HOUSES", 2000)
    samples = run_training_simulation(cfg, houses, days)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    expected = segmented_columns(cfg, houses, days)
    assert len(samples.p_ac_free) == 3 * (cfg.duration_s // 10)
    assert max(samples.p_ac_free) > 0.0
    for got, want in zip(samples, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert_no_child()


def test_small_shares_stay_in_this_process(cfg, houses, cold, free_run, children,
                                           monkeypatch):
    monkeypatch.setattr(engine, "FORK_MIN_HOUSES", N_HOUSES - N2 + 1)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    monkeypatch.setattr(engine, "FORK_MIN_HOUSES", N_HOUSES - N2)
    monkeypatch.setattr(engine, "_cpus", lambda: 1)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    assert children.pids == []


def test_only_linux_counts_its_cpus(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert engine._cpus() == 1


def test_run_beside_another_thread_forks_no_child(cfg, houses, cold, free_run, children):
    # a fork while another thread runs may deadlock in the child
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait, args=(WAIT_S,))
    waiting.start()
    try:
        result = run_scenario(cfg, houses, cold, None, controlled=False)
    finally:
        stop.set()
        waiting.join(WAIT_S)
    assert not waiting.is_alive()
    assert children.pids == []
    assert_same_bytes(result, free_run)


def test_run_under_an_error_callback_forks_no_child(cfg, houses, cold, free_run, children):
    # the callback would act on the child's copies, never on the caller's
    calls = []
    with np.errstate(call=lambda kind, flag: calls.append(kind), over="call"):
        result = run_scenario(cfg, houses, cold, None, controlled=False)
    assert children.pids == [] and calls == []
    assert_same_bytes(result, free_run)


def test_controlled_runs_fork_no_child(cfg, houses, days, children):
    model = BaselineModel(coefficients=(3000.0, 0, 0, 0, 0, 0, 0, 0))
    run_scenario(cfg, houses, days[0], model)
    assert children.pids == []


def test_child_share_aborts_with_its_cycle(cfg, houses, cold, children):
    # only houses of the child's half go non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericAbortError) as err:
            run_scenario(cfg, blazing(houses, slice(-10, None)),
                         replace(cold, solar_wm2=np.full(len(cold), 1e308)),
                         None, controlled=False)
    assert err.value.cycle == cfg.total_s // cfg.control_cycle_s
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert_no_child()


@pytest.mark.parametrize("error", [KeyboardInterrupt(), NumericAbortError(7)],
                         ids=["interrupt", "numeric_abort"])
def test_child_killed_when_own_share_raises(cfg, houses, cold, children, monkeypatch,
                                            error):
    thermostat, calls, parent = engine._thermostat_slice, [], os.getpid()

    def failing(fleet, ws):  # in this process only
        if os.getpid() == parent:
            calls.append(fleet.n)
            if len(calls) == 10:
                raise error
        thermostat(fleet, ws)

    monkeypatch.setattr(engine, "_thermostat_slice", failing)
    with pytest.raises(type(error)):
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert calls == [N2] * 10
    assert len(children.pids) == 1  # killed and reaped, not left running
    assert children.status[children.pids[0]] in (0, -signal.SIGKILL)
    assert_no_child()


@pytest.mark.parametrize("sunlit", [slice(0, 10), slice(-10, None)],
                         ids=["own_half", "child_half"])
def test_floating_point_error_under_the_callers_errstate(cfg, houses, cold, children,
                                                         sunlit):
    # only the sunlit houses have an aperture, and the sun overflows it
    # from record row 3 on
    solar = cold.solar_wm2.copy()
    solar[3:] = 1e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_scenario(cfg, blazing(houses, sunlit), replace(cold, solar_wm2=solar), None,
                         controlled=False)
    assert len(children.pids) == 1 and children.pids[0] in children.status
    assert_no_child()


def test_warning_filters_reach_the_child(cfg, houses, cold, children):
    # only the child's houses overflow, and the caller's filter turns
    # NumPy's RuntimeWarning into the error the child raises
    solar = cold.solar_wm2.copy()
    solar[3:] = 1e308
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_scenario(cfg, blazing(houses, slice(-10, None)),
                         replace(cold, solar_wm2=solar), None, controlled=False)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert_no_child()


def test_child_warnings_reach_a_recording_caller(cfg, houses, cold, children):
    # only the child's houses overflow: a caller that records every
    # warning records the same ones as when one process steps every house
    solar = cold.solar_wm2.copy()
    solar[3:] = 1e308
    args = cfg, blazing(houses, slice(-10, None)), replace(cold, solar_wm2=solar), None, False
    recorded = []
    for run in (one_process, lambda fn, *args: fn(*args)):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn"):
            warnings.simplefilter("always")
            with pytest.raises(NumericAbortError):
                run(run_scenario, *args)
        recorded.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert len(recorded[0]) > 0 and recorded[1] == recorded[0]
    assert {category for category, *_ in recorded[0]} == {RuntimeWarning}
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert_no_child()


@pytest.mark.parametrize("error", [
    NumericAbortError(1560), ContractError("a hysteresis band starts at or above"),
    ValueError("trace cadence must equal the record cycle"),
    PopulationError("house 3: no valid draw in 100 attempts"), MemoryError(),
], ids=lambda e: type(e).__name__)
def test_child_exception_raised_with_its_type(cfg, houses, cold, children, monkeypatch,
                                              error):
    def fail(houses, cfg):
        raise error

    monkeypatch.setattr(engine, "_step_tail", fail)
    with pytest.raises(type(error)) as err:
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert str(err.value) == str(error)
    assert getattr(err.value, "cycle", None) == getattr(error, "cycle", None)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 0}
    assert_no_child()


def test_child_without_a_result_is_an_error(cfg, houses, cold, children, monkeypatch):
    monkeypatch.setattr(engine, "_step_tail", lambda houses, cfg: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: 3}
    assert_no_child()


def test_child_killed_by_a_signal_is_an_error(cfg, houses, cold, children, monkeypatch):
    # as when the kernel's out-of-memory killer ends the child
    monkeypatch.setattr(engine, "_step_tail",
                        lambda houses, cfg: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=f"exited with status {-signal.SIGKILL} and no"):
        run_scenario(cfg, houses, cold, None, controlled=False)
    assert len(children.pids) == 1 and children.status == {children.pids[0]: -signal.SIGKILL}
    assert_no_child()


def test_result_larger_than_a_pipe(cfg, houses, cold, free_run, children, monkeypatch):
    step_tail, add, received = engine._step_tail, engine._Sums.add, []

    def padded(houses, cfg):
        sums = step_tail(houses, cfg)
        sums.padding = np.arange(200_000)  # 1.6 MB, beyond a pipe's buffer
        return sums

    def recorded(self, other):
        received.append(other)
        add(self, other)

    monkeypatch.setattr(engine, "_step_tail", padded)
    monkeypatch.setattr(engine._Sums, "add", recorded)
    assert_same_bytes(run_scenario(cfg, houses, cold, None, controlled=False), free_run)
    assert np.array_equal(received[0].padding, np.arange(200_000))
    assert children.status == {children.pids[0]: 0}
    assert_no_child()


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
    # an unclosed pipe end warns only from a finalizer; under these flags
    # that fails the run
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest",
         "-q", "-p", "no:cacheprovider", "-W", "error::pytest.PytestUnraisableExceptionWarning",
         __file__],
        capture_output=True, text=True, timeout=WAIT_S - 10)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ResourceWarning" not in proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" in proc.stdout
