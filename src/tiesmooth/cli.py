"""Command-line pipeline: scenario generation, training, runs, metrics.

Exit codes are a stable contract: 0 success, 2 unreadable or malformed
input (I/O problems), 3 baseline fit failure, 4 numeric abort inside a
run, 5 incomparable run pair.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .baseline import BaselineModel, RankDeficientError, fit_baseline_model
from .engine import (NumericAbortError, load_run_dir, run_scenario,
                     run_training_simulation, write_run_dir)
from .metrics import (compute_metrics, write_fluctuation_csv, write_report,
                      write_s_trajectory_csv, write_smoothing_csv)
from .population import estimate_free_peak_kw, generate_population
from .scenario import ScenarioConfig, load_scenario, save_scenario, with_overrides
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


def _write_manifest(outdir: Path, scenario_path, trace_path, model_path,
                    cfg: ScenarioConfig, extra: dict) -> None:
    inputs = [scenario_path, trace_path] + ([model_path] if model_path else [])
    lines = [
        f"version = {__version__}",
        f"scenario = {scenario_path}",
        f"traces = {trace_path}",
        f"model = {model_path if model_path else 'none'}",
        f"seed = {cfg.seed}",
        f"out = {outdir}",
        f"inputs_sha256 = {_sha256_files(inputs)}",
        f"traces_sha256 = {_sha256_files([trace_path])}",
        f"created_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _read_manifest(rundir: Path) -> dict[str, str]:
    out = {}
    for line in (rundir / "manifest.txt").read_text().splitlines():
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _population(cfg: ScenarioConfig):
    return generate_population(cfg.population_spec(), cfg.seed,
                               consts=cfg.thermal,
                               epsilon_margin=cfg.epsilon_margin_c)


def cmd_gen_scenario(args) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        cfg = ScenarioConfig(n_acl=args.n_acl, seed=args.seed,
                             training_days=args.training_days)
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
    except OSError as exc:
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
        base = scenario_path.parent
        day_traces = []
        for day in range(cfg.training_days):
            with open(base / f"train_day{day}.csv") as fh:
                day_traces.append(read_traces(fh, cfg.record_cycle_s))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    houses = _population(cfg)
    try:
        samples = run_training_simulation(cfg, houses, day_traces)
    except NumericAbortError as exc:
        print(f"error: numeric abort in training at control cycle {exc.cycle}",
              file=sys.stderr)
        return EXIT_NUMERIC
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

    from .baseline import predict_baseline
    errs = [predict_baseline(model, s.t_out, s.solar, s.total_rated) - s.p_ac_free
            for s in samples]
    rmse = (sum(e * e for e in errs) / len(errs)) ** 0.5
    peak = max(s.p_ac_free for s in samples)
    print(f"fitted on {len(samples)} samples; in-sample RMSE {rmse:.2f} kW "
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
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    houses = _population(cfg)
    try:
        result = run_scenario(cfg, houses, traces, model,
                              controlled=not args.uncontrolled)
    except NumericAbortError as exc:
        print(f"error: numeric abort at control cycle {exc.cycle}", file=sys.stderr)
        return EXIT_NUMERIC

    write_run_dir(out, result)
    _write_manifest(out, scenario_path, trace_path, model_path, cfg, {
        "uncontrolled": str(args.uncontrolled).lower(),
        "baseline_bias": repr(cfg.baseline_bias),
        "soa_feedback_enabled": str(cfg.soa_feedback_enabled).lower(),
        "results_sha256": _sha256_files([out / "results.csv"]),
    })
    kind = "uncontrolled" if args.uncontrolled else "controlled"
    print(f"{kind} run complete: {len(result.time_s)} records, "
          f"{len(result.cycle_records)} cycles, gaps={len(result.gaps)}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    cdir, udir = Path(args.controlled), Path(args.uncontrolled)
    out = Path(args.out)
    try:
        man_c = _read_manifest(cdir)
        man_u = _read_manifest(udir)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if man_c.get("traces_sha256") != man_u.get("traces_sha256"):
        print("error: runs were produced from different traces and cannot "
              "be compared", file=sys.stderr)
        return EXIT_INCOMPARABLE

    try:
        controlled = load_run_dir(cdir)
        uncontrolled = load_run_dir(udir)
        out.mkdir(parents=True, exist_ok=True)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    report = compute_metrics(controlled, uncontrolled)
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
    p.add_argument("--days", type=int, default=1, help="evaluation trace days")
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
