"""Command-line pipeline: scenario generation, training, runs, metrics.

Exit codes are a stable contract: 0 success, 2 unreadable or malformed
input (I/O problems, a malformed run directory, an unknown scenario key
or a bad scenario value, a population that cannot be drawn, traces
shorter than the run), 3 baseline fit failure, 4 numeric abort inside a
run, 5 incomparable run pair.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import (BaselineModel, RankDeficientError, build_features,
                       fit_baseline_model)
from .engine import (NumericAbortError, check_run_cadence, load_run_dir, run_scenario,
                     run_training_simulation, write_run_dir)
from .metrics import (compute_metrics, write_fluctuation_csv, write_report,
                      write_s_trajectory_csv, write_smoothing_csv)
from .population import estimate_free_peak_kw, generate_population
from .scenario import ScenarioConfig, load_scenario, save_scenario, with_overrides
from .textio import read_keyvals, write_keyvals
from .traces import (generate_traces, generate_training_traces, peak_weather,
                     read_traces, write_traces)

EXIT_OK = 0
EXIT_IO = 2
EXIT_FIT = 3
EXIT_NUMERIC = 4
EXIT_INCOMPARABLE = 5


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    """The BLAS NumPy was built against, with its build configuration: its
    kernels, picked by CPU under DYNAMIC_ARCH, decide some output bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no mode="dicts"
        return "unknown"
    return " ".join(str(blas[key]) for key in ("name", "version", "openblas configuration")
                    if key in blas)


def _write_manifest(outdir: Path, scenario_path, trace_path, model_path,
                    cfg: ScenarioConfig, extra: dict) -> None:
    inputs = [scenario_path, trace_path] + ([model_path] if model_path else [])
    with open(outdir / "manifest.txt", "w") as fh:
        write_keyvals(fh, {
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "scenario": str(scenario_path),
            "traces": str(trace_path),
            "model": str(model_path) if model_path else "none",
            "seed": cfg.seed,
            "out": str(outdir),
            "inputs_sha256": _sha256_files(inputs),
            "traces_sha256": _sha256_files([trace_path]),
            "created_utc": datetime.now(timezone.utc).isoformat(),
            **extra,
        })


def _read_manifest(rundir: Path) -> dict[str, str]:
    with open(rundir / "manifest.txt") as fh:
        return read_keyvals(fh)


def _population(cfg: ScenarioConfig):
    return generate_population(cfg.population_spec(), cfg.seed, consts=cfg.thermal,
                               epsilon_margin=cfg.epsilon_margin_c)


def cmd_gen_scenario(args) -> int:
    out = Path(args.out)
    try:
        if args.days < 1:
            raise ValueError(f"--days must be >= 1, got {args.days}")
        cfg = ScenarioConfig(n_acl=args.n_acl, seed=args.seed, duration_s=args.days * 86400,
                             training_days=args.training_days)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "scenario.txt", "w") as fh:
            save_scenario(cfg, fh)

        houses = _population(cfg)
        t_peak, solar_peak = peak_weather()
        free_peak = estimate_free_peak_kw(houses, t_peak, solar_peak)

        traces = generate_traces(cfg.seed, free_peak,
                                 wind_capacity_ratio=cfg.wind_capacity_ratio,
                                 acl_peak_share=cfg.acl_peak_share,
                                 days=args.days, warmup_s=cfg.warmup_s)
        with open(out / "traces.csv", "w") as fh:
            write_traces(fh, traces)

        for day, day_traces in enumerate(generate_training_traces(
                cfg.seed, free_peak, cfg.training_days,
                wind_capacity_ratio=cfg.wind_capacity_ratio,
                acl_peak_share=cfg.acl_peak_share, warmup_s=cfg.warmup_s)):
            with open(out / f"train_day{day}.csv", "w") as fh:
                write_traces(fh, day_traces)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"scenario written to {out} (n_acl={cfg.n_acl}, seed={cfg.seed}, "
          f"estimated free peak {free_peak:.1f} kW)")
    return EXIT_OK


def cmd_train(args) -> int:
    scenario_path = Path(args.scenario)
    try:
        with open(scenario_path) as fh:
            cfg = load_scenario(fh)
        if cfg.training_days < 2:
            raise ValueError("training_days must be >= 2: day 0 enrolls the whole fleet, "
                             "so one day leaves the rated-power regressor constant")
        base = scenario_path.parent
        day_traces = []
        for day in range(cfg.training_days):
            with open(base / f"train_day{day}.csv") as fh:
                day_traces.append(read_traces(fh, cfg.record_cycle_s))
        houses = _population(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        samples = run_training_simulation(cfg, houses, day_traces)
    except NumericAbortError as exc:
        print(f"error: numeric abort in training at control cycle {exc.cycle}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # houses whose thermal step cannot be discretized
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        model = fit_baseline_model(samples)
    except RankDeficientError as exc:
        print(f"error: baseline fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT

    try:
        model.save(args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    predicted = np.clip(build_features(samples.t_out, samples.solar, samples.total_rated)
                        @ np.array(model.coefficients), 0.0, samples.total_rated)
    rmse = float(np.sqrt(np.mean((predicted - samples.p_ac_free) ** 2)))
    peak = float(np.max(samples.p_ac_free))
    print(f"fitted on {len(samples.p_ac_free)} samples; in-sample RMSE {rmse:.2f} kW "
          f"({100.0 * rmse / peak:.1f}% of free-power peak {peak:.1f} kW)")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario_path = Path(args.scenario)
    out = Path(args.out)
    try:
        with open(scenario_path) as fh:
            cfg = load_scenario(fh)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.no_soa_feedback:
            overrides["soa_feedback_enabled"] = False
        if args.baseline_bias is not None:
            overrides["baseline_bias"] = args.baseline_bias
        if overrides:
            cfg = with_overrides(cfg, **overrides)

        trace_path = Path(args.traces) if args.traces else scenario_path.parent / "traces.csv"
        with open(trace_path) as fh:
            traces = read_traces(fh, cfg.record_cycle_s)
        model = None
        model_path = None
        if not args.uncontrolled:
            model_path = Path(args.model) if args.model else scenario_path.parent / "model.txt"
            model = BaselineModel.load(model_path)
        houses = _population(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        result = run_scenario(cfg, houses, traces, model,
                              controlled=not args.uncontrolled)
    except NumericAbortError as exc:
        print(f"error: numeric abort at control cycle {exc.cycle}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # traces that do not cover the run
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        write_run_dir(out, result)
        _write_manifest(out, scenario_path, trace_path, model_path, cfg, {
            "uncontrolled": args.uncontrolled,
            "baseline_bias": cfg.baseline_bias,
            "soa_feedback_enabled": cfg.soa_feedback_enabled,
            "results_sha256": _sha256_files([out / "results.csv"]),
        })
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    kind = "uncontrolled" if args.uncontrolled else "controlled"
    print(f"{kind} run complete: {len(result.time_s)} records, "
          f"{len(result.cycle_records)} cycles")
    return EXIT_OK


def cmd_metrics(args) -> int:
    cdir, udir = Path(args.controlled), Path(args.uncontrolled)
    out = Path(args.out)
    try:
        man_c, man_u = _read_manifest(cdir), _read_manifest(udir)
        controlled, uncontrolled = load_run_dir(cdir), load_run_dir(udir)
        check_run_cadence(controlled)
        check_run_cadence(uncontrolled)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if man_c.get("traces_sha256") != man_u.get("traces_sha256"):
            raise ValueError("they were produced from different traces")
        report = compute_metrics(controlled, uncontrolled)
    except ValueError as exc:
        print(f"error: runs cannot be compared: {exc}", file=sys.stderr)
        return EXIT_INCOMPARABLE

    with open(out / "metrics.txt", "w") as fh:
        write_report(fh, report)
    with open(out / "smoothing.csv", "w") as fh:
        write_smoothing_csv(fh, controlled, uncontrolled)
    with open(out / "fluctuation.csv", "w") as fh:
        write_fluctuation_csv(fh, controlled, uncontrolled)
    with open(out / "s_trajectory.csv", "w") as fh:
        write_s_trajectory_csv(fh, controlled, uncontrolled)

    print(f"max 10-min fluctuation: controlled {report.max_fluct_controlled_kw:.1f} kW "
          f"vs uncontrolled {report.max_fluct_uncontrolled_kw:.1f} kW "
          f"({report.max_fluct_reduction_pct:.1f}% reduction); "
          f"not-worse at {100.0 * report.frac_instants_not_worse:.1f}% of instants")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiesmooth",
        description="Microgrid tie-line smoothing with market-coordinated "
                    "air-conditioning loads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenario", help="write a default scenario and traces")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-acl", type=int, default=450)
    p.add_argument("--days", type=int, default=1,
                   help="evaluation days: the traces and the run's duration_s")
    p.add_argument("--training-days", type=int, default=3)
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("train", help="fit the baseline regression")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="execute a controlled or free run")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model")
    p.add_argument("--traces")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-soa-feedback", action="store_true")
    p.add_argument("--baseline-bias", type=float)
    p.add_argument("--uncontrolled", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("metrics", help="compare a controlled and a free run")
    p.add_argument("--controlled", required=True)
    p.add_argument("--uncontrolled", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
