"""Host-time benchmark of the tiesmooth simulator.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 42 --seconds 12 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

Each run sets up its workload several times and reports the median set-up
time, then repeats the timed part as often as fits in ``--seconds`` (at
least once) and reports the median.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the environment, the sizes, the output hashes and every failure.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced repetitions alternate and the metrics are the
per-layer ones, plus ``trace.overhead_s`` (traced minus untraced median).

What is measured is host time.  Simulated time is fixed by each
scenario.  The model has no reference results, so it is unvalidated and
the benchmark gives no accuracy figure; the output checks are exact
identities (power balance, ranges, row and cycle counts) plus identical
``results.csv`` / ``cycles.csv`` hashes across repetitions.  Everything
runs in one process with ``n_workers = 1`` and BLAS threads capped at
the CPU count.  Only ``--seed`` reaches the program, through the
scenario it generates.

Workloads:

* ``desk``: the five CLI stages ``gen-scenario -> train -> run ->
  run --uncontrolled -> metrics`` at the default scenario (n = 450,
  2 h warm-up + 24 h), called in-process through ``tiesmooth.cli.main``,
  one after another (closed loop).  The only workload with text I/O,
  training and ``metrics``; per-call Python overhead outweighs array
  work.  Set-up is a cold interpreter importing ``tiesmooth.cli``, which
  every CLI call pays.  While run directories do not round-trip (the
  ``np.float64(0.0)`` in ``summary.txt`` under NumPy 2) the ``metrics``
  stage fails and is counted in ``failed``; it costs about 2 % of the
  iteration once it works.
* ``market-5k``: a controlled ``engine.run_scenario`` at n = 5 000 over
  2 h warm-up + 4 h (359 market cycles, 1.8 M bids).  The market layer
  dominates.  Set-up runs ``gen-scenario`` and ``train`` at n = 5 000.
* ``kernel-50k``: a free ``engine.run_scenario`` at n = 50 000 over 2 h
  warm-up + 1 h.  The fleet step kernels dominate and the market is not
  used; the fleet arrays (about 8 MB) exceed the L2 cache.  Set-up is
  population synthesis, trace generation and ``build_fleet``.

Which end-to-end metric each per-layer metric should move:

=====================================  ===================================  ======================
per-layer metrics                      moves                                should not move
=====================================  ===================================  ======================
market.*, mgcc.*                       wall_s on market-5k, less on desk    anything on kernel-50k
engine.run_self_s                      wall_s on market-5k and desk
engine.thermostat_*, engine.advance_*  wall_s on kernel-50k and desk;
engine.fleet_soa_s, engine.train_s     setup_s on market-5k
population.generate_s,                 setup_s on kernel-50k                desk (negligible)
thermal.discretize_*,
engine.build_fleet_s
traces.*, engine.write_run_s,          wall_s on desk only                  market-5k, kernel-50k
engine.load_run_s, engine.bytes_written,
metrics.compute_s, cli.*
baseline.fit_s                         wall_s on desk; setup_s on market-5k
=====================================  ===================================  ======================
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from spans import EntryPoint, Tracer, absent_spans, instrumented

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk", "market-5k", "kernel-50k")


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (set-up failed, bad checkout)."""


# --- layer entry points ---------------------------------------------------------

def _count_bids(tracer: Tracer, args: tuple, result) -> None:
    if len(args) > 1:
        tracer.add("market.bids", len(args[1]))


def _count_normal(tracer: Tracer, args: tuple, result) -> None:
    kind = getattr(getattr(result, "kind", None), "value", None)
    tracer.add("market.normal", kind == "normal")


# Each entry point is wrapped in the namespace its callers look it up in.
ENTRY_POINTS = [
    EntryPoint("market.curve", "tiesmooth.mgcc", "build_demand_curve"),
    EntryPoint("market.clear", "tiesmooth.mgcc", "clear_market", _count_normal),
    EntryPoint("market.verify", "tiesmooth.mgcc", "committed_power_at_price"),
    EntryPoint("market.net_load", "tiesmooth.mgcc", "estimate_net_load"),
    EntryPoint("mgcc.cycle", "tiesmooth.engine", "run_control_cycle", _count_bids),
    EntryPoint("engine.run", "tiesmooth.engine", "run_scenario"),
    EntryPoint("engine.run", "tiesmooth.cli", "run_scenario"),
    EntryPoint("engine.thermostat", "tiesmooth.engine", "_thermostat_slice"),
    EntryPoint("engine.advance", "tiesmooth.engine", "_advance_slice"),
    EntryPoint("engine.fleet_soa", "tiesmooth.engine", "fleet_soa"),
    EntryPoint("engine.train", "tiesmooth.cli", "run_training_simulation"),
    EntryPoint("engine.build_fleet", "tiesmooth.engine", "build_fleet"),
    EntryPoint("thermal.discretize", "tiesmooth.engine", "discretize"),
    EntryPoint("population.generate", "tiesmooth.population", "generate_population"),
    EntryPoint("population.generate", "tiesmooth.cli", "generate_population"),
    EntryPoint("traces.generate", "tiesmooth.traces", "generate_traces"),
    EntryPoint("traces.generate", "tiesmooth.cli", "generate_traces"),
    EntryPoint("traces.generate", "tiesmooth.cli", "generate_training_traces"),
    EntryPoint("traces.write", "tiesmooth.cli", "write_traces"),
    EntryPoint("traces.read", "tiesmooth.traces", "read_traces"),
    EntryPoint("traces.read", "tiesmooth.cli", "read_traces"),
    EntryPoint("engine.write_run", "tiesmooth.cli", "write_run_dir"),
    EntryPoint("engine.load_run", "tiesmooth.cli", "load_run_dir"),
    EntryPoint("baseline.fit", "tiesmooth.cli", "fit_baseline_model"),
    EntryPoint("metrics.compute", "tiesmooth.cli", "compute_metrics"),
]

CLI_STAGES = ("gen-scenario", "train", "run", "run-uncontrolled", "metrics")

PerEpisode = Callable[["Episode"], float]


def _total(span: str) -> PerEpisode:
    return lambda ep: ep.layers[span].total_s if span in ep.layers else 0.0


def _self(span: str) -> PerEpisode:
    return lambda ep: ep.layers[span].self_s if span in ep.layers else 0.0


def _calls(span: str) -> PerEpisode:
    return lambda ep: ep.layers[span].count if span in ep.layers else 0


def _value(key: str) -> PerEpisode:
    return lambda ep: ep.values.get(key, 0.0)


# Additive per-layer metrics, reported as set-up median plus timed-part median:
# name, unit, better, source span (None: not from a span), per-episode value.
ADDITIVE = [
    ("market.curve_s", "s", "lower", "market.curve", _total("market.curve")),
    ("market.clear_s", "s", "lower", "market.clear", _total("market.clear")),
    ("market.verify_s", "s", "lower", "market.verify", _total("market.verify")),
    ("market.net_load_s", "s", "lower", "market.net_load", _total("market.net_load")),
    ("market.bids", "count", "lower", "mgcc.cycle", _value("market.bids")),
    ("mgcc.cycle_s", "s", "lower", "mgcc.cycle", _total("mgcc.cycle")),
    ("mgcc.cycle_self_s", "s", "lower", "mgcc.cycle", _self("mgcc.cycle")),
    ("mgcc.cycles", "count", "lower", "mgcc.cycle", _calls("mgcc.cycle")),
    ("engine.run_s", "s", "lower", "engine.run", _total("engine.run")),
    ("engine.run_self_s", "s", "lower", "engine.run", _self("engine.run")),
    ("engine.thermostat_s", "s", "lower", "engine.thermostat", _total("engine.thermostat")),
    ("engine.thermostat_calls", "count", "lower", "engine.thermostat",
     _calls("engine.thermostat")),
    ("engine.advance_s", "s", "lower", "engine.advance", _total("engine.advance")),
    ("engine.advance_calls", "count", "lower", "engine.advance", _calls("engine.advance")),
    ("engine.fleet_soa_s", "s", "lower", "engine.fleet_soa", _total("engine.fleet_soa")),
    ("engine.train_s", "s", "lower", "engine.train", _total("engine.train")),
    ("population.generate_s", "s", "lower", "population.generate",
     _total("population.generate")),
    ("thermal.discretize_s", "s", "lower", "thermal.discretize",
     _total("thermal.discretize")),
    ("thermal.discretize_calls", "count", "lower", "thermal.discretize",
     _calls("thermal.discretize")),
    ("engine.build_fleet_s", "s", "lower", "engine.build_fleet", _total("engine.build_fleet")),
    ("traces.generate_s", "s", "lower", "traces.generate", _total("traces.generate")),
    ("traces.write_s", "s", "lower", "traces.write", _total("traces.write")),
    ("traces.read_s", "s", "lower", "traces.read", _total("traces.read")),
    ("engine.write_run_s", "s", "lower", "engine.write_run", _total("engine.write_run")),
    ("engine.load_run_s", "s", "lower", "engine.load_run", _total("engine.load_run")),
    ("engine.bytes_written", "B", "lower", None, _value("engine.bytes_written")),
    ("baseline.fit_s", "s", "lower", "baseline.fit", _total("baseline.fit")),
    ("metrics.compute_s", "s", "lower", "metrics.compute", _total("metrics.compute")),
] + [(f"cli.{stage}_s", "s", "lower", None, _value(f"cli.{stage}_s"))
     for stage in CLI_STAGES]

# Metrics pooled over every traced episode, and the tracing overhead.
POOLED = [
    ("market.normal_ratio", "ratio", "higher", "market.clear"),
    ("mgcc.cycle_p50_ms", "ms", "lower", "mgcc.cycle"),
    ("mgcc.cycle_p99_ms", "ms", "lower", "mgcc.cycle"),
    ("trace.overhead_s", "s", "lower", None),
]

END_TO_END = [("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower")]


def per_layer_specs() -> list[tuple[str, str, str]]:
    return [m[:3] for m in ADDITIVE] + [m[:3] for m in POOLED]


# --- measurement helpers -------------------------------------------------------

@dataclass
class Episode:
    """What one traced set-up or timed repetition recorded."""

    layers: dict
    values: dict[str, float]
    cycle_s: list[float]
    absent: set[str]


@dataclass
class Outcome:
    """Operations and output checks of one timed repetition."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)

    def operation(self, error: Optional[str], what: str) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{what}: {error}")

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed(fn: Callable[[], object], tracer: Optional[Tracer]):
    """Run fn; return (value, wall seconds, Episode or None)."""
    if tracer is None:
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0, None
    tracer.reset()
    with instrumented(tracer, ENTRY_POINTS) as missing:
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
    episode = Episode(layers=tracer.layers(), values=dict(tracer.counts),
                      cycle_s=tracer.durations("mgcc.cycle"),
                      absent=absent_spans(ENTRY_POINTS, missing))
    return value, wall, episode


def tail_percentile(samples: list[float]) -> Optional[tuple[float, float]]:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"


def call_cli(cli, argv: list[str]) -> tuple[Optional[str], float]:
    """Run one CLI command in-process; return (error or None, seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a failing stage is counted, not fatal
        error = describe(exc)
    else:
        error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()}"
    return error, time.perf_counter() - t0


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    return {name: [r[j] for r in body] for j, name in enumerate(header)}


def check_run_dir(rundir: Path, load: list[float], wind: list[float], n: int,
                  rows: int, cycles: int) -> list[str]:
    """Exact checks on one run directory's results.csv and cycles.csv."""
    where = rundir.name
    try:
        res = read_columns(rundir / "results.csv")
        cyc = read_columns(rundir / "cycles.csv")
        p_g = [float(v) for v in res["p_g"]]
        p_ac = [float(v) for v in res["p_ac_actual"]]
        s_agg = [float(v) for v in res["s_aggregate"]]
        n_on = [int(v) for v in res["n_on"]]
        p_star = [float(v) for v in cyc["p_star"]]
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{where}: unreadable output: {type(exc).__name__}: {exc}"]
    problems = []
    if len(p_g) != rows:
        problems.append(f"{where}: {len(p_g)} result rows, expected {rows}")
    if len(p_star) != cycles:
        problems.append(f"{where}: {len(p_star)} cycles, expected {cycles}")
    unbalanced = sum(1 for i in range(min(len(p_g), len(load)))
                     if not (math.isfinite(p_g[i]) and p_g[i] == p_ac[i] + load[i] - wind[i]))
    if unbalanced:
        problems.append(f"{where}: power balance broken at {unbalanced} rows")
    if any(not 0 <= k <= n for k in n_on):
        problems.append(f"{where}: n_on outside [0, {n}]")
    if any(not -1.0 <= s <= 1.0 for s in s_agg):
        problems.append(f"{where}: s_aggregate outside [-1, 1]")
    if any(not -2.0 <= p <= 2.0 for p in p_star):
        problems.append(f"{where}: p_star outside [-2, 2]")
    return problems


def trace_columns(path: Path) -> tuple[list[float], list[float]]:
    cols = read_columns(path)
    return [float(v) for v in cols["p_load_kw"]], [float(v) for v in cols["p_wind_kw"]]


def generated_inputs(d: Path, training_days: int) -> list[Path]:
    """The files gen-scenario writes: everything later stages read."""
    return [d / "scenario.txt", d / "traces.csv"] + [
        d / f"train_day{k}.csv" for k in range(training_days)]


def run_hashes(rundir: Path, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{name}": sha256_files([rundir / name])
            if (rundir / name).exists() else "missing"
            for name in ("results.csv", "cycles.csv")}


# --- workloads -------------------------------------------------------------------

class Workload:
    """A set-up repeated `setups` times, then a timed part and its checks."""

    setups = 3

    def __init__(self, seed: int, work: Path):
        import tiesmooth
        self.tiesmooth = tiesmooth
        self.seed = seed
        self.work = work
        self.sizes: dict[str, object] = {}

    def setup(self) -> dict[str, float]:
        raise NotImplementedError

    def run_timed(self, out: Path):
        raise NotImplementedError

    def check(self, out: Path, raw) -> Outcome:
        raise NotImplementedError

    def population(self, cfg):
        return self.tiesmooth.population.generate_population(
            cfg.population_spec(), cfg.seed, consts=cfg.thermal,
            epsilon_margin=cfg.epsilon_margin_c)

    def fleet_bytes(self, fleet) -> int:
        return sum(v.nbytes for v in vars(fleet).values() if hasattr(v, "nbytes"))


class Desk(Workload):
    name = "desk"
    setups = 5

    def setup(self) -> dict[str, float]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import tiesmooth.cli"], env=env,
                       check=True, timeout=120)
        return {}

    def run_timed(self, out: Path) -> dict[str, tuple[Optional[str], float]]:
        cli = self.tiesmooth.cli
        scenario = str(out / "scenario.txt")
        stages = {
            "gen-scenario": ["gen-scenario", "--out", str(out), "--seed", str(self.seed)],
            "train": ["train", "--scenario", scenario, "--out", str(out / "model.txt")],
            "run": ["run", "--scenario", scenario, "--model", str(out / "model.txt"),
                    "--out", str(out / "ctrl")],
            "run-uncontrolled": ["run", "--scenario", scenario, "--uncontrolled",
                                 "--out", str(out / "free")],
            "metrics": ["metrics", "--controlled", str(out / "ctrl"),
                        "--uncontrolled", str(out / "free"), "--out", str(out / "metrics")],
        }
        return {stage: call_cli(cli, argv) for stage, argv in stages.items()}

    def check(self, out: Path, raw) -> Outcome:
        outcome = Outcome()
        for stage, (error, seconds) in raw.items():
            outcome.operation(error, f"stage {stage}")
            outcome.values[f"cli.{stage}_s"] = seconds
        try:
            with open(out / "scenario.txt") as fh:
                cfg = self.tiesmooth.scenario.load_scenario(fh)
            load, wind = trace_columns(out / "traces.csv")
        except (OSError, KeyError, ValueError) as exc:
            outcome.check([f"inputs unreadable: {type(exc).__name__}: {exc}"])
            return outcome
        outcome.hashes["inputs"] = sha256_files(generated_inputs(out, cfg.training_days))
        rows = cfg.total_s // cfg.record_cycle_s
        cycles = cfg.total_s // cfg.control_cycle_s - 1
        problems = []
        for run, n_cycles in (("ctrl", cycles), ("free", 0)):
            problems += check_run_dir(out / run, load, wind, cfg.n_acl, rows, n_cycles)
            outcome.hashes.update(run_hashes(out / run, run))
        outcome.check(problems)
        outcome.values["engine.bytes_written"] = sum(
            (out / run / name).stat().st_size
            for run in ("ctrl", "free") for name in ("results.csv", "cycles.csv", "summary.txt")
            if (out / run / name).exists())
        if not self.sizes:
            sim_h = (2 * cfg.total_s + cfg.training_days * (cfg.warmup_s + 86400)) / 3600
            fleet = self.tiesmooth.engine.build_fleet(self.population(cfg), cfg.sim_step_s)
            self.sizes = {"n": cfg.n_acl, "simulated_h": sim_h,
                          "house_h": cfg.n_acl * sim_h, "bids": cycles * cfg.n_acl,
                          "fleet_bytes": self.fleet_bytes(fleet)}
        return outcome


class EngineRun(Workload):
    """A timed engine.run_scenario call on inputs prepared during set-up."""

    controlled = True

    def run_timed(self, out: Path):
        cfg, houses, traces, model = self.inputs
        try:
            return self.tiesmooth.engine.run_scenario(cfg, houses, traces, model,
                                                      controlled=self.controlled)
        except Exception as exc:  # a failing run is counted, not fatal
            return describe(exc)

    def check(self, out: Path, result) -> Outcome:
        cfg, houses, traces, model = self.inputs
        outcome = Outcome()
        failed = isinstance(result, str)
        outcome.operation(result if failed else None, "run")
        if failed:
            outcome.check(["run produced no output"])
            return outcome
        self.tiesmooth.engine.write_run_dir(out / "run", result)
        cycles = cfg.total_s // cfg.control_cycle_s - 1 if self.controlled else 0
        problems = check_run_dir(out / "run", traces.p_load_kw.tolist(),
                                 traces.p_wind_kw.tolist(), cfg.n_acl,
                                 cfg.total_s // cfg.record_cycle_s, cycles)
        outcome.check(problems)
        outcome.hashes.update(run_hashes(out / "run", "run"))
        outcome.hashes["inputs"] = self.input_hash
        if "fleet_bytes" not in self.sizes:
            self.sizes["fleet_bytes"] = self.fleet_bytes(
                self.tiesmooth.engine.build_fleet(houses, cfg.sim_step_s))
        sim_h = cfg.total_s / 3600
        self.sizes.update(n=cfg.n_acl, simulated_h=sim_h, house_h=cfg.n_acl * sim_h,
                          bids=len(result.cycle_records) * cfg.n_acl)
        return outcome


class Market(EngineRun):
    name = "market-5k"
    n = 5000
    duration_s = 4 * 3600

    def setup(self) -> dict[str, float]:
        tz = self.tiesmooth
        self.inputs = None
        d = self.work / "setup"
        shutil.rmtree(d, ignore_errors=True)
        scenario = d / "scenario.txt"
        values = {}
        for stage, argv in (
                ("gen-scenario", ["gen-scenario", "--out", str(d), "--seed", str(self.seed),
                                  "--n-acl", str(self.n)]),
                ("train", ["train", "--scenario", str(scenario), "--out", str(d / "model.txt")])):
            error, values[f"cli.{stage}_s"] = call_cli(tz.cli, argv)
            if error is not None:
                raise BenchError(f"set-up stage {stage} failed: {error}")
        with open(scenario) as fh:
            cfg = tz.scenario.with_overrides(tz.scenario.load_scenario(fh),
                                             duration_s=self.duration_s)
        with open(d / "traces.csv") as fh:
            traces = tz.traces.read_traces(fh, cfg.record_cycle_s)
        model = tz.baseline.BaselineModel.load(d / "model.txt")
        self.inputs = (cfg, self.population(cfg), traces, model)
        self.input_hash = sha256_files(generated_inputs(d, cfg.training_days))
        self.sizes.update(setup_simulated_h=cfg.training_days * (cfg.warmup_s + 86400) / 3600)
        return values


class Kernel(EngineRun):
    name = "kernel-50k"
    controlled = False
    n = 50_000
    duration_s = 3600

    def setup(self) -> dict[str, float]:
        tz = self.tiesmooth
        cfg = tz.scenario.ScenarioConfig(n_acl=self.n, seed=self.seed,
                                         duration_s=self.duration_s)
        self.inputs = None
        houses = self.population(cfg)
        free_peak = tz.population.estimate_free_peak_kw(houses, *tz.traces.peak_weather())
        traces = tz.traces.generate_traces(
            cfg.seed, free_peak, wind_capacity_ratio=cfg.wind_capacity_ratio,
            acl_peak_share=cfg.acl_peak_share, days=1, warmup_s=cfg.warmup_s)
        fleet = tz.engine.build_fleet(houses, cfg.sim_step_s)
        self.sizes["fleet_bytes"] = self.fleet_bytes(fleet)
        self.inputs = (cfg, houses, traces, None)
        self.input_hash = input_digest(tz, cfg, traces)
        return {}


def input_digest(tz, cfg, traces) -> str:
    """sha256 of the scenario file and trace file the inputs would be saved as."""
    text = io.StringIO()
    tz.scenario.save_scenario(cfg, text)
    tz.traces.write_traces(text, traces)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Desk, Market, Kernel)}


# --- the run ---------------------------------------------------------------------

@dataclass
class Measurement:
    setup_s: list[float]
    wall_s: list[float]
    traced_wall_s: list[float]
    outcomes: list[Outcome]
    setup_episodes: list[Episode]
    timed_episodes: list[Episode]


def measure(workload: Workload, seconds: float, trace: bool) -> Measurement:
    tracer = Tracer() if trace else None
    m = Measurement([], [], [], [], [], [])
    for _ in range(workload.setups):
        values, wall, episode = timed(workload.setup, tracer)
        m.setup_s.append(wall)
        if episode is not None:
            episode.values.update(values)
            m.setup_episodes.append(episode)

    start = time.perf_counter()
    i = 0
    while True:
        traced_now = trace and i % 2 == 1
        out = workload.work / f"rep{i}"
        out.mkdir()
        raw, wall, episode = timed(lambda: workload.run_timed(out),
                                   tracer if traced_now else None)
        outcome = workload.check(out, raw)
        shutil.rmtree(out)
        if m.outcomes:
            ref = m.outcomes[0].hashes
            changed = sorted(k for k in ref.keys() | outcome.hashes.keys()
                             if ref.get(k) != outcome.hashes.get(k))
            outcome.check([f"hash of {k} differs from the first repetition"
                           for k in changed])
        m.outcomes.append(outcome)
        if episode is not None:
            episode.values.update(outcome.values)
            m.timed_episodes.append(episode)
            m.traced_wall_s.append(wall)
        else:
            m.wall_s.append(wall)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed * (i + 1) / i > seconds and (not trace or i >= 2):
            return m  # one more repetition would overrun the time budget


def per_layer_metrics(m: Measurement) -> tuple[dict, set[str]]:
    episodes = m.setup_episodes + m.timed_episodes
    absent = set.intersection(*(ep.absent for ep in episodes)) if episodes else set()
    metrics = {}

    def med(eps, fn):
        return statistics.median(fn(ep) for ep in eps) if eps else 0.0

    for name, unit, _, span, fn in ADDITIVE:
        if span not in absent:
            value = med(m.setup_episodes, fn) + med(m.timed_episodes, fn)
            metrics[name] = {"value": value, "unit": unit}
    cycles = sorted(d for ep in episodes for d in ep.cycle_s)
    normal = sum(ep.values.get("market.normal", 0) for ep in episodes)
    cleared = sum(ep.layers["market.clear"].count for ep in episodes
                  if "market.clear" in ep.layers)
    pooled = {
        "market.normal_ratio": normal / cleared if cleared else 0.0,
        "mgcc.cycle_p50_ms": 1e3 * _quantile(cycles, 0.50),
        "mgcc.cycle_p99_ms": 1e3 * _quantile(cycles, 0.99),
        "trace.overhead_s": statistics.median(m.traced_wall_s) - statistics.median(m.wall_s),
    }
    for name, unit, _, span in POOLED:
        if span not in absent:
            metrics[name] = {"value": pooled[name], "unit": unit}
    return metrics, absent


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def environment(np) -> dict[str, object]:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    for level, index in (("l2", 2), ("l3", 3)):
        try:
            env[level] = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") \
                .read_text().strip()
        except OSError:
            env[level] = "unknown"
    return env


def cap_blas_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPU count; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "tiesmooth" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import tiesmooth.cli  # noqa: F401  (loads every module the workloads use)
    except ImportError as exc:
        print(f"error: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        try:
            m = measure(workload, seconds, trace)
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1

    problems = [p for o in m.outcomes for p in o.problems]
    errors = [e for o in m.outcomes for e in o.errors]
    attempted = sum(o.attempted for o in m.outcomes)
    failed = sum(o.failed for o in m.outcomes)
    walls = m.wall_s
    print(f"# environment: {json.dumps(environment(np))}")
    print(f"# workload: {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"sizes={json.dumps(workload.sizes)}")
    print(f"# sha256: {json.dumps(m.outcomes[0].hashes)}")
    for text in sorted(set(errors)):
        print(f"# failed operation (x{errors.count(text)}): {text}")
    for text in sorted(set(problems)):
        print(f"# failed check (x{problems.count(text)}): {text}")
    stages = {k: round(statistics.median(o.values[k] for o in m.outcomes), 4)
              for k in m.outcomes[0].values if k.startswith("cli.")}
    if stages:
        print(f"# stage medians (s): {json.dumps(stages)}")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else
                 "no percentile above the median has 10 samples beyond it")
    print(f"# wall_s: median {statistics.median(walls):.4f} s over {len(walls)} "
          f"samples; {tail_text}")
    print(f"# setup_s: median {statistics.median(m.setup_s):.4f} s over "
          f"{len(m.setup_s)} samples")
    print(f"# fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"# samples: {json.dumps({'wall_s': len(walls), 'setup_s': len(m.setup_s)})}")

    if trace:
        metrics, absent = per_layer_metrics(m)
        if absent:
            print(f"# absent layers (entry point not found): {sorted(absent)}")
        print(f"# traced wall_s: median {statistics.median(m.traced_wall_s):.4f} s over "
              f"{len(m.traced_wall_s)} samples")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": statistics.median(m.setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        print(f"# peak_rss_mb: {rss_mb:.1f} MB (fresh process)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Run every workload in a fresh process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        samples = next(json.loads(line.split(": ", 1)[1]) for line in lines
                       if line.startswith("# samples: "))
        rows.append((name, json.loads(lines[-1]), samples))
    print(f"{'workload':<11} {'wall_s':>9} {'setup_s':>9} {'peak_rss_mb':>11}  "
          f"{'fail_ratio':<16} samples (wall_s / setup_s)")
    for name, result, samples in rows:
        metric = result["metrics"]
        ratio = f"{result['failed']}/{result['attempted']} = " \
                f"{result['failed'] / result['attempted']:.3f}"
        print(f"{name:<11} {metric['wall_s']['value']:>7.3f} s "
              f"{metric['setup_s']['value']:>7.3f} s {metric['peak_rss_mb']['value']:>8.1f} MB  "
              f"{ratio:<16} {samples['wall_s']} / {samples['setup_s']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in uint64")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
