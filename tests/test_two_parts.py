"""Large runs stepped as two parts on two threads: same bytes, no thread left.

`run_scenario` steps a fleet of `THREAD_MIN_HOUSES` houses or more as two
parts, the second on a helper thread, when the process may use two CPUs.
These tests lower the floor so that 5 003 houses (not a multiple of 64)
split, and compare every output with the one-part run of the same inputs.
"""

import dataclasses
import signal
import sys
import threading

import numpy as np
import pytest

import tiesmooth.engine as engine
from tiesmooth.baseline import BaselineModel
from tiesmooth.engine import NumericAbortError, run_scenario
from tiesmooth.mgcc import ContractError
from tiesmooth.population import Population, aligned, generate_population
from tiesmooth.scenario import PopulationSpec, ScenarioConfig
from tiesmooth.traces import TraceSet, generate_traces, quantize_kw

N_HOUSES = 5003
WAIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Every test ends in WAIT_S: a helper that never answers fails the
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


@pytest.fixture(scope="module")
def houses():
    return generate_population(PopulationSpec(n=N_HOUSES), 17)


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig(n_acl=N_HOUSES, seed=17, duration_s=600, warmup_s=600)


@pytest.fixture(scope="module")
def traces(cfg):
    """Each kind of run's traces: the free run's 20 C colder, so that houses
    in both parts leave their comfort band."""
    traces = generate_traces(cfg.seed, 2.0 * N_HOUSES, warmup_s=cfg.warmup_s, days=1)
    return {True: traces, False: dataclasses.replace(traces, t_out_c=traces.t_out_c - 20.0)}


MODEL = BaselineModel(coefficients=(4000.0, 0, 0, 0, 0, 0, 0, 0))


@pytest.fixture
def threads(monkeypatch):
    """Every thread started while the test runs, on two CPUs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    yield started
    for thread in started:
        thread.join(timeout=WAIT_S)
        assert not thread.is_alive()


def two_parts(monkeypatch):
    monkeypatch.setattr(engine, "THREAD_MIN_HOUSES", 64)


def run(cfg, houses, traces, controlled):
    return run_scenario(cfg, houses, traces[controlled], MODEL if controlled else None,
                        controlled=controlled)


def assert_same_bytes(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        elif field.name == "cycle_records":
            assert [repr(dataclasses.astuple(r)) for r in a] \
                == [repr(dataclasses.astuple(r)) for r in b]
        else:
            assert repr(a) == repr(b), field.name


@pytest.fixture(scope="module")
def one_part(cfg, houses, traces):
    """Each kind of run stepped as one part (n is under the floor)."""
    assert N_HOUSES < engine.THREAD_MIN_HOUSES
    return {controlled: run(cfg, houses, traces, controlled) for controlled in (True, False)}


@pytest.mark.parametrize("controlled", [True, False], ids=["controlled", "free"])
def test_two_parts_give_the_bytes_of_one(cfg, houses, traces, one_part, threads,
                                         monkeypatch, controlled):
    two_parts(monkeypatch)
    before = threading.active_count()
    result = run(cfg, houses, traces, controlled)
    assert len(threads) == 1 and not threads[0].is_alive()
    assert threading.active_count() == before
    assert len(result.cycle_records) == (cfg.total_s // cfg.control_cycle_s - 1
                                         if controlled else 0)
    assert result.comfort_violation_acl_min > 0.0 or controlled
    assert result.n_on.max() > 0
    assert_same_bytes(result, one_part[controlled])


def test_same_bytes_under_a_short_switch_interval(cfg, houses, traces, one_part, threads,
                                                  monkeypatch):
    two_parts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run(cfg, houses, traces, True)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 1
    assert_same_bytes(result, one_part[True])


@pytest.mark.parametrize("floor, cpus", [(N_HOUSES + 1, 2), (64, 1)],
                         ids=["under_the_floor", "one_cpu"])
def test_one_part_starts_no_thread(cfg, houses, traces, one_part, threads, monkeypatch,
                                   floor, cpus):
    monkeypatch.setattr(engine, "THREAD_MIN_HOUSES", floor)
    monkeypatch.setattr(engine, "_cpus", lambda: cpus)
    assert_same_bytes(run(cfg, houses, traces, False), one_part[False])
    assert threads == []


def test_training_runs_start_no_thread(cfg, houses, traces, threads, monkeypatch):
    two_parts(monkeypatch)
    day = [traces[True]] * 2
    engine.run_training_simulation(cfg, houses[:200], day)
    assert threads == []


def failing_on_call(kernel, call, error):
    """`kernel`, raising `error` from its `call`-th call on."""
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) >= call:
            raise error
        return kernel(*args)
    return failing


@pytest.mark.parametrize("error", [NumericAbortError(7), ContractError("bad band"),
                                   MemoryError()], ids=lambda e: type(e).__name__)
def test_helper_exception_raised_with_its_type(cfg, houses, traces, threads, monkeypatch,
                                               error):
    two_parts(monkeypatch)
    step, (thermostat, advance, soa) = engine._HELPER_CALLS
    monkeypatch.setattr(engine, "_HELPER_CALLS", (
        step, (thermostat, failing_on_call(advance, 5, error), soa)))
    before = threading.active_count()
    with pytest.raises(type(error)) as err:
        run(cfg, houses, traces, True)
    assert err.value is error
    assert len(threads) == 1 and not threads[0].is_alive()
    assert threading.active_count() == before


def test_interrupt_in_own_part_leaves_no_thread(cfg, houses, traces, threads, monkeypatch):
    two_parts(monkeypatch)
    monkeypatch.setattr(engine, "_thermostat_slice", failing_on_call(
        engine._thermostat_slice, 3, KeyboardInterrupt()))
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run(cfg, houses, traces, False)
    assert len(threads) == 1 and not threads[0].is_alive()
    assert threading.active_count() == before


def test_traced_kernels_run_on_the_calling_thread_only(cfg, houses, traces, threads,
                                                       monkeypatch):
    # the benchmark's tracer wraps these names and assumes one thread
    two_parts(monkeypatch)
    callers = {}

    def recorded(kernel, seen):
        def call(*args):
            seen.append(threading.get_ident())
            return kernel(*args)
        return call

    for name in ("_thermostat_slice", "_advance_slice", "fleet_soa"):
        monkeypatch.setattr(engine, name, recorded(getattr(engine, name),
                                                   callers.setdefault(name, [])))
    run(cfg, houses, traces, True)
    assert len(threads) == 1
    steps = cfg.total_s // cfg.sim_step_s
    assert len(callers["_thermostat_slice"]) == len(callers["_advance_slice"]) == steps
    records, bids = cfg.total_s // cfg.record_cycle_s, cfg.total_s // cfg.control_cycle_s
    assert len(callers["fleet_soa"]) == records + bids
    assert {ident for seen in callers.values() for ident in seen} == {threading.get_ident()}


def constant_traces(total_s, solar):
    n = total_s // 10
    return TraceSet(time_s=np.arange(n, dtype=np.int64) * 10, t_out_c=np.full(n, 33.0),
                    solar_wm2=np.full(n, solar), p_load_kw=quantize_kw(np.full(n, 8000.0)),
                    p_wind_kw=quantize_kw(np.full(n, 500.0)), cadence_s=10)


@pytest.mark.parametrize("sunlit", [slice(0, 10), slice(-10, None)],
                         ids=["own_part", "helper_part"])
def test_overflow_raises_in_either_part_under_errstate(cfg, houses, threads, monkeypatch,
                                                       sunlit):
    # only the sunlit houses have an aperture, and the sun overflows it
    two_parts(monkeypatch)
    aperture = np.zeros(N_HOUSES)
    aperture[sunlit] = houses.columns["solar_aperture"][sunlit]
    lit = Population(houses.house_index, {**houses.columns,
                                          "solar_aperture": aligned(aperture)})
    blazing = constant_traces(cfg.total_s, 1e308)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            run_scenario(cfg, lit, blazing, None, controlled=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericAbortError):
            run_scenario(cfg, lit, blazing, None, controlled=False)
    assert len(threads) == 2 and not any(t.is_alive() for t in threads)
