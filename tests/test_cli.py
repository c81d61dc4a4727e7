"""Command-line pipeline: file emission, exit codes, idempotence."""

import contextlib
import io
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tiesmooth.cli as cli
from tiesmooth.baseline import CorrectionParams, RankDeficientError
from tiesmooth.cli import main
from tiesmooth.domains import DOMAINS, check, contains
from tiesmooth.engine import NumericAbortError
from tiesmooth.metrics import IncomparableRunsError, WindowError
from tiesmooth.mgcc import ContractError
from tiesmooth.population import PopulationError
from tiesmooth.scenario import Dist, ScenarioConfig, save_scenario
from tiesmooth.textio import parse, read_keyvals
from tiesmooth.thermal import DerivationConstants
from tiesmooth.traces import read_traces, write_traces


def edit_scenario(path, **replacements):
    text = path.read_text()
    for key, value in replacements.items():
        pattern = re.compile(rf"^{key} = .*$", re.MULTILINE)
        assert pattern.search(text), f"{key} not found in scenario file"
        text = pattern.sub(f"{key} = {value}", text)
    path.write_text(text)


def set_trace_column(path, column, value, start=1, stop=None):
    """Overwrite one column of a trace CSV in data rows `start` to `stop`
    (exclusive; the end of the file if None)."""
    lines = path.read_text().splitlines()
    for i in range(start, stop or len(lines)):
        cols = lines[i].split(",")
        cols[column] = value
        lines[i] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def edit_line(path, index, edit):
    """Replace line `index` of a file by `edit(line)`."""
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def add_scenario_key(path, section, line):
    text = path.read_text()
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated scenario shrunk to a 2-hour run, trained model, two runs."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scen"
    assert main(["gen-scenario", "--out", str(scen), "--seed", "7",
                 "--n-acl", "12"]) == 0
    edit_scenario(scen / "scenario.txt", duration_s=7200, warmup_s=1800)
    assert main(["train", "--scenario", str(scen / "scenario.txt"),
                 "--out", str(scen / "model.txt")]) == 0
    assert main(["run", "--scenario", str(scen / "scenario.txt"),
                 "--model", str(scen / "model.txt"),
                 "--out", str(root / "run_c")]) == 0
    assert main(["run", "--scenario", str(scen / "scenario.txt"),
                 "--uncontrolled", "--out", str(root / "run_u")]) == 0
    return root


class TestGenScenario:
    def test_emits_all_files(self, workspace):
        scen = workspace / "scen"
        for name in ("scenario.txt", "traces.csv", "train_day0.csv",
                     "train_day1.csv", "train_day2.csv"):
            assert (scen / name).exists()

    def test_defaults_match_tables(self, tmp_path):
        out = tmp_path / "defaults"
        assert main(["gen-scenario", "--out", str(out), "--seed", "1"]) == 0
        text = (out / "scenario.txt").read_text()
        assert "n_acl = 450" in text
        assert "tau_s = 3000.0" in text
        assert "control_cycle_s = 60" in text
        assert "s1 = 0.5" in text and "gamma = 0.02" in text
        assert "t_set = normal 26.0 0.5" in text

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-scenario", "--out", str(out), "--seed", "11",
                         "--n-acl", "8"]) == 0
        assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()
        assert (a / "scenario.txt").read_bytes() == (b / "scenario.txt").read_bytes()

    def test_days_flag_scales_traces(self, tmp_path):
        out = tmp_path / "long"
        assert main(["gen-scenario", "--out", str(out), "--seed", "2",
                     "--n-acl", "8", "--days", "3"]) == 0
        rows = (out / "traces.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == (7200 + 3 * 86400) // 10
        assert "\nduration_s = 259200\n" in (out / "scenario.txt").read_text()

    @pytest.mark.parametrize("flag, value", [("--n-acl", "0"), ("--training-days", "0"),
                                             ("--days", "0"), ("--seed", "-1"),
                                             ("--seed", str(2**64))])
    def test_bad_value_is_io_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestTrain:
    def test_missing_traces_is_io_error(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        (scen / "train_day1.csv").unlink()
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2

    def test_rank_deficiency_is_fit_error(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        # a warm-up as long as the training traces leaves every day empty
        edit_scenario(scen / "scenario.txt", duration_s=7200, warmup_s=93600)
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 3

    def test_one_training_day_is_io_error(self, tmp_path, capsys):
        # day 0 enrolls the whole fleet, so one day can only end in a
        # rank-deficient fit; train says so before simulating anything
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        edit_scenario(scen / "scenario.txt", training_days=1)
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2
        assert "training_days must be >= 2" in capsys.readouterr().err
        assert not (scen / "model.txt").exists()

    def test_nan_training_trace_is_io_error(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        set_trace_column(scen / "train_day0.csv", 1, "nan", start=1000)
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2

    def test_unknown_scenario_key_is_io_error(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        add_scenario_key(scen / "scenario.txt", "mgcc", "gama = 0.5")
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2

    def test_fleet_that_never_runs_prints_no_share(self, tmp_path, capsys):
        # training days 40 degC colder, with almost no sun: no compressor
        # starts, so the in-sample RMSE has no peak to be a share of
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--n-acl", "20"]) == 0
        for day in range(3):
            with open(scen / f"train_day{day}.csv") as fh:
                traces = read_traces(fh, 10)
            with open(scen / f"train_day{day}.csv", "w") as fh:
                write_traces(fh, replace(traces, t_out_c=traces.t_out_c - 40.0,
                                         solar_wm2=traces.solar_wm2 * 0.001))
        capsys.readouterr()
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("(free-power peak 0.0 kW)\n") and "%" not in out, out
        assert err == "" and (scen / "model.txt").exists()

    def test_model_reload_identical_predictions(self, workspace):
        from tiesmooth.baseline import BaselineModel, predict_baseline
        path = workspace / "scen" / "model.txt"
        m1 = BaselineModel.load(path)
        m2 = BaselineModel.load(path)
        assert m1 == m2
        assert predict_baseline(m1, 33.0, 500.0, 30.0) \
            == predict_baseline(m2, 33.0, 500.0, 30.0)


class TestRun:
    def test_outputs_present(self, workspace):
        for name in ("results.csv", "cycles.csv", "summary.txt", "manifest.txt"):
            assert (workspace / "run_c" / name).exists()
            assert (workspace / "run_u" / name).exists()

    def test_missing_scenario_is_io_error(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trace_is_io_error(self, workspace, tmp_path, value):
        scen = workspace / "scen"
        traces = tmp_path / "traces.csv"
        traces.write_text((scen / "traces.csv").read_text())
        set_trace_column(traces, 3, value, start=500)
        assert main(["run", "--scenario", str(scen / "scenario.txt"),
                     "--model", str(scen / "model.txt"), "--traces", str(traces),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("duration_s, warmup_s", [(86410, 7200), (86400, 7210)])
    def test_traces_shorter_than_run_is_io_error(self, workspace, tmp_path, capsys,
                                                 duration_s, warmup_s):
        scen = tmp_path / "scenario.txt"
        shutil.copy(workspace / "scen" / "scenario.txt", scen)
        edit_scenario(scen, duration_s=duration_s, warmup_s=warmup_s)
        assert main(["run", "--scenario", str(scen),
                     "--model", str(workspace / "scen" / "model.txt"),
                     "--traces", str(workspace / "scen" / "traces.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "traces shorter than the requested run" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_scenario_is_io_error(self, tmp_path):
        scen = tmp_path / "scenario.txt"
        scen.write_text("[scenario]\nthis line is not a setting\n")
        assert main(["run", "--scenario", str(scen), "--uncontrolled",
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("section, line", [("scenario", "n_acls = 5"),
                                               ("scenario", "n_workers = 1"),
                                               ("thermal", "oversize = 2.0")])
    def test_unknown_scenario_key_is_io_error(self, workspace, tmp_path, section, line):
        scen = tmp_path / "scenario.txt"
        shutil.copy(workspace / "scen" / "scenario.txt", scen)
        add_scenario_key(scen, section, line)
        assert main(["run", "--scenario", str(scen), "--uncontrolled",
                     "--traces", str(workspace / "scen" / "traces.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_step_over_60_s_is_io_error(self, workspace, tmp_path, capsys):
        scen = tmp_path / "scenario.txt"
        shutil.copy(workspace / "scen" / "scenario.txt", scen)
        edit_scenario(scen, sim_step_s=120, record_cycle_s=120, control_cycle_s=240,
                      bid_lead_s=120)
        assert main(["run", "--scenario", str(scen), "--uncontrolled",
                     "--traces", str(workspace / "scen" / "traces.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        assert main(["train", "--scenario", str(scen),
                     "--out", str(tmp_path / "model.txt")]) == 2
        assert capsys.readouterr().err.count("sim_step_s must be in (0, 60], got 120") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("record_cycle_s", "0", "record_cycle_s must be in (0, inf), got 0"),
        ("tau_s", "0.0", "tau_s must be in (0, inf), got 0.0"),
        ("duration_s", "7205", "record_cycle_s | duration_s must hold, got "
                               "record_cycle_s = 10, duration_s = 7205"),
        ("warmup_s", "1805", "record_cycle_s | warmup_s must hold, got "
                             "record_cycle_s = 10, warmup_s = 1805"),
    ], ids=["record_cycle_s", "tau_s", "duration_s_off_grid", "warmup_s_off_grid"])
    def test_bad_scenario_value_is_io_error(self, workspace, tmp_path, capsys,
                                            key, value, message):
        scen = tmp_path / "scenario.txt"
        shutil.copy(workspace / "scen" / "scenario.txt", scen)
        edit_scenario(scen, **{key: value})
        assert main(["run", "--scenario", str(scen), "--uncontrolled",
                     "--traces", str(workspace / "scen" / "traces.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        assert main(["train", "--scenario", str(scen),
                     "--out", str(tmp_path / "model.txt")]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "out").exists()

    # each range is checked as the scenario loads, so NaN fails it too
    @pytest.mark.parametrize("key, value, message", [
        ("acl_peak_share", "nan", "acl_peak_share must be in (0, 1], got nan"),
        ("acl_peak_share", "0.0", "acl_peak_share must be in (0, 1], got 0.0"),
        ("acl_peak_share", "1.5", "acl_peak_share must be in (0, 1], got 1.5"),
        ("wind_capacity_ratio", "nan", "wind_capacity_ratio must be in [0, inf), got nan"),
        ("wind_capacity_ratio", "-0.1", "wind_capacity_ratio must be in [0, inf), got -0.1"),
        ("baseline_bias", "-2.0", "baseline_bias must be in (-1, 1], got -2.0"),
        ("baseline_bias", "nan", "baseline_bias must be in (-1, 1], got nan"),
        ("baseline_bias", "1.5", "baseline_bias must be in (-1, 1], got 1.5"),
        ("gamma", "nan", "gamma must be in (0, inf], got nan"),
        ("epsilon_margin_c", "inf", "epsilon_margin_c must be in [0, inf), got inf"),
        ("epsilon_margin_c", "-0.01", "epsilon_margin_c must be in [0, inf), got -0.01"),
        ("mass_coupling_ratio", "inf", "mass_coupling_ratio must be in (0, inf), got inf"),
        ("air_density", "-1.2", "air_density must be in (0, inf), got -1.2"),
        ("c_air_multiplier", "0.0", "c_air_multiplier must be in (0, inf), got 0.0"),
        ("c_mass_air_ratio", "-1.0", "c_mass_air_ratio must be in (0, inf), got -1.0"),
        ("design_indoor_c", "nan", "design_indoor_c must be in (-inf, inf), got nan"),
        ("design_outdoor_c", "inf", "design_outdoor_c must be in (-inf, inf), got inf"),
        ("design_outdoor_c", "23.0", "design_indoor_c < design_outdoor_c must hold, got "
                                     "design_indoor_c = 23.0, design_outdoor_c = 23.0"),
    ], ids=["acl_peak_share_nan", "acl_peak_share_zero", "acl_peak_share_above_one",
            "wind_capacity_ratio_nan", "wind_capacity_ratio_negative", "baseline_bias_minus_2",
            "baseline_bias_nan", "baseline_bias_above_one", "gamma_nan", "epsilon_margin_c_inf",
            "epsilon_margin_c_negative", "mass_coupling_ratio_inf", "air_density_negative",
            "c_air_multiplier_zero", "c_mass_air_ratio_negative", "design_indoor_c_nan",
            "design_outdoor_c_inf", "design_outdoor_c_at_indoor"])
    def test_out_of_range_value_is_io_error_before_any_work(self, workspace, tmp_path, capsys,
                                                            key, value, message):
        scen = tmp_path / "scen"
        shutil.copytree(workspace / "scen", scen)
        (scen / "model.txt").unlink()
        edit_scenario(scen / "scenario.txt", **{key: value})
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2
        for flags in (["--uncontrolled"], ["--model", str(workspace / "scen" / "model.txt")]):
            assert main(["run", "--scenario", str(scen / "scenario.txt"), *flags,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {message}") == 3 and "Traceback" not in err
        assert not (scen / "model.txt").exists() and not (tmp_path / "out").exists()

    def test_out_of_range_bias_flag_is_io_error(self, workspace, tmp_path, capsys):
        assert main(["run", "--scenario", str(workspace / "scen" / "scenario.txt"),
                     "--baseline-bias", "-1.0", "--out", str(tmp_path / "out")]) == 2
        assert "baseline_bias must be in (-1, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("mode", ["uncontrolled", "controlled"])
    def test_seed_flag_outside_uint64_is_io_error(self, workspace, tmp_path, capsys, seed, mode):
        scen = workspace / "scen"
        flags = ["--uncontrolled"] if mode == "uncontrolled" else ["--model", str(scen / "model.txt")]
        assert main(["run", "--scenario", str(scen / "scenario.txt"), *flags, "--seed", seed,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_idempotent_rerun(self, workspace):
        scen = workspace / "scen"
        out2 = workspace / "run_c2"
        assert main(["run", "--scenario", str(scen / "scenario.txt"),
                     "--model", str(scen / "model.txt"),
                     "--out", str(out2)]) == 0
        assert (out2 / "results.csv").read_bytes() \
            == (workspace / "run_c" / "results.csv").read_bytes()
        sha = re.compile(r"results_sha256 = (\w+)")
        h1 = sha.search((workspace / "run_c" / "manifest.txt").read_text()).group(1)
        h2 = sha.search((out2 / "manifest.txt").read_text()).group(1)
        assert h1 == h2

    def test_manifest_names_the_software(self, workspace):
        for run in ("run_c", "run_u"):
            with open(workspace / run / "manifest.txt") as fh:
                manifest = read_keyvals(fh)
            assert manifest["python"] == platform.python_version()
            assert manifest["numpy"] == np.__version__
            assert manifest["blas"]

    def test_flag_overrides_recorded(self, workspace):
        scen = workspace / "scen"
        out = workspace / "run_bias"
        assert main(["run", "--scenario", str(scen / "scenario.txt"),
                     "--model", str(scen / "model.txt"),
                     "--baseline-bias", "0.10", "--no-soa-feedback",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "baseline_bias = 0.1" in manifest
        assert "soa_feedback_enabled = false" in manifest


class TestMetrics:
    def test_compare_paired_runs(self, workspace):
        out = workspace / "metrics"
        assert main(["metrics", "--controlled", str(workspace / "run_c"),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(out)]) == 0
        for name in ("metrics.txt", "smoothing.csv", "fluctuation.csv",
                     "s_trajectory.csv"):
            assert (out / name).exists()
        text = (out / "metrics.txt").read_text()
        assert "max_fluct_reduction_pct" in text
        for line in text.splitlines():
            if " = " in line:
                float(line.split(" = ", 1)[1])  # builtin floats, no np.float64(...)

    @pytest.mark.parametrize("controlled, uncontrolled", [
        ("run_u", "run_c"), ("run_u", "run_u"), ("run_c", "run_c")])
    def test_runs_of_the_wrong_kinds_are_incomparable(self, workspace, tmp_path, capsys,
                                                      controlled, uncontrolled):
        assert main(["metrics", "--controlled", str(workspace / controlled),
                     "--uncontrolled", str(workspace / uncontrolled),
                     "--out", str(tmp_path / "m")]) == 5
        assert capsys.readouterr().err == (
            "error: runs cannot be compared: --controlled must name a controlled run "
            "and --uncontrolled a free one\n")
        assert not (tmp_path / "m").exists()

    def test_different_traces_incomparable(self, workspace, tmp_path, capsys):
        other_scen = tmp_path / "scen2"
        assert main(["gen-scenario", "--out", str(other_scen), "--seed", "99",
                     "--n-acl", "12"]) == 0
        edit_scenario(other_scen / "scenario.txt", duration_s=7200,
                      warmup_s=1800)
        other_run = tmp_path / "run_other"
        assert main(["run", "--scenario", str(other_scen / "scenario.txt"),
                     "--uncontrolled", "--out", str(other_run)]) == 0
        assert main(["metrics", "--controlled", str(workspace / "run_c"),
                     "--uncontrolled", str(other_run),
                     "--out", str(tmp_path / "m")]) == 5
        assert capsys.readouterr().err == ("error: runs cannot be compared: they were "
                                           "produced from different traces\n")
        assert not (tmp_path / "m").exists()  # made only for an accepted pair

    @pytest.mark.parametrize("name, index, edit", [
        ("results.csv", 0, lambda line: line.replace("p_g,", "p_grid,")),
        ("results.csv", 5, lambda line: line.rsplit(",", 1)[0]),
        ("results.csv", 5, lambda line: line + ",7"),
        ("results.csv", 5, lambda line: "x" + line),
        ("results.csv", 5, lambda line: line.replace(",", ",np.float64(", 1)),
        ("cycles.csv", 0, lambda line: line.replace("k,", "cycle,", 1)),
        ("cycles.csv", 3, lambda line: line.rsplit(",", 1)[0]),
        ("cycles.csv", 3, lambda line: line.replace(",", ",,", 1)),
        # a NaN p_g_lpf, which once passed both identities
        ("cycles.csv", 3, lambda line: ",".join(
            v if j != 6 else "nan" for j, v in enumerate(line.split(",")))),
        # p_g0 no longer equals p_base + net_load
        ("cycles.csv", 3, lambda line: ",".join(
            v if j != 5 else repr(float(v) + 1.0) for j, v in enumerate(line.split(",")))),
        ("summary.txt", 0, lambda line: "controlled = yes"),
        ("summary.txt", 1, lambda line: "record_cycle = 10"),
        ("summary.txt", 6, lambda line: line + "\ngaps = "),  # an older summary.txt
        ("manifest.txt", 0, lambda line: "not a pair"),
    ])
    def test_malformed_run_dir_is_io_error(self, workspace, tmp_path, name, index, edit):
        bad = tmp_path / "bad"
        shutil.copytree(workspace / "run_c", bad)
        edit_line(bad / name, index, edit)
        assert main(["metrics", "--controlled", str(bad),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("name, index, edit", [
        ("results.csv", -1, lambda line: ""),           # one record shorter
    ])
    def test_different_lengths_or_cadences_incomparable(self, workspace, tmp_path,
                                                        name, index, edit):
        other = tmp_path / "other"
        shutil.copytree(workspace / "run_u", other)
        edit_line(other / name, index, edit)
        assert main(["metrics", "--controlled", str(workspace / "run_c"),
                     "--uncontrolled", str(other), "--out", str(tmp_path / "m")]) == 5

    def test_different_cadences_incomparable(self, workspace, tmp_path):
        # a well-formed run on a 20 s record grid, as long as the 10 s one
        other = tmp_path / "other"
        shutil.copytree(workspace / "run_u", other)
        edit_line(other / "summary.txt", 1, lambda line: "record_cycle_s = 20")
        lines = (other / "results.csv").read_text().splitlines()
        for i in range(1, len(lines)):
            time_s, rest = lines[i].split(",", 1)
            lines[i] = f"{2 * int(time_s)},{rest}"
        (other / "results.csv").write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--controlled", str(workspace / "run_c"),
                     "--uncontrolled", str(other), "--out", str(tmp_path / "m")]) == 5

    def test_summary_cadence_off_record_grid_is_io_error(self, workspace, tmp_path):
        # both summaries claim 20 s records over 10 s rows: comparable, but
        # a 10-minute window would span only 5 minutes of records
        runs = []
        for run in ("run_c", "run_u"):
            runs.append(tmp_path / run)
            shutil.copytree(workspace / run, runs[-1])
            edit_line(runs[-1] / "summary.txt", 1, lambda line: "record_cycle_s = 20")
        assert main(["metrics", "--controlled", str(runs[0]), "--uncontrolled",
                     str(runs[1]), "--out", str(tmp_path / "m")]) == 2

    def test_summary_cadence_of_zero_is_io_error(self, workspace, tmp_path, capsys):
        # every record at 0 s lies on a 0 s grid
        run = tmp_path / "zero"
        shutil.copytree(workspace / "run_u", run)
        header, *rows = (run / "results.csv").read_text().splitlines()
        (run / "results.csv").write_text(
            "\n".join([header] + ["0," + row.partition(",")[2] for row in rows]) + "\n")
        edit_line(run / "summary.txt", 1, lambda line: "record_cycle_s = 0")
        assert main(["metrics", "--controlled", str(run), "--uncontrolled", str(run),
                     "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err == "error: record_cycle_s must be in (0, inf), got 0\n"

    @pytest.mark.parametrize("index, k", [(1, "0"),         # before the first cycle
                                          (3, "1"),         # not increasing
                                          (-1, "1000000")])  # after the run ends
    def test_cycle_off_the_run_is_io_error(self, workspace, tmp_path, index, k):
        bad = tmp_path / "bad"
        shutil.copytree(workspace / "run_c", bad)
        edit_line(bad / "cycles.csv", index, lambda line: k + line[line.index(","):])
        assert main(["metrics", "--controlled", str(bad),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 2

    @staticmethod
    def with_cells(workspace, tmp_path, rows, cells):
        """A copy of the controlled run with results.csv's `cells`, column
        index -> text, set on `rows`."""
        run = tmp_path / "edited"
        shutil.copytree(workspace / "run_c", run)
        for row in rows:
            edit_line(run / "results.csv", row, lambda line: ",".join(
                cells.get(j, v) for j, v in enumerate(line.split(","))))
        return run

    @pytest.mark.parametrize("column, value", [(1, "inf"), (1, "nan"), (4, "-inf"),
                                               (6, "nan")],
                             ids=["p_g_inf", "p_g_nan", "p_ac_actual_inf", "s_aggregate_nan"])
    def test_non_finite_series_is_io_error(self, workspace, tmp_path, capsys, column, value):
        run = self.with_cells(workspace, tmp_path, [400], {column: value})
        assert main(["metrics", "--controlled", str(run),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_nan_before_the_first_cycle_is_accepted(self, workspace, tmp_path):
        # p_g0_reference, p_g_lpf and p_ac_target are NaN by design until a
        # cycle has cleared
        run = self.with_cells(workspace, tmp_path, [400], {2: "nan", 3: "nan", 5: "nan"})
        assert main(["metrics", "--controlled", str(run),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 0

    def test_metric_that_overflows_is_incomparable(self, workspace, tmp_path, capsys):
        # every series finite, but the tracking error squares past the
        # largest double: the error line alone, no NumPy warning
        run = self.with_cells(workspace, tmp_path, range(400, 410), {1: "1e+308"})
        assert main(["metrics", "--controlled", str(run),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 5
        assert "rmse_tie_tracking_kw must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m" / "metrics.txt").exists()

    def test_missing_run_dir_is_io_error(self, workspace, tmp_path):
        assert main(["metrics", "--controlled", str(tmp_path / "absent"),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m2")]) == 2

    def test_unwritable_output_is_io_error(self, workspace, tmp_path, capsys):
        # a directory stands where metrics.txt goes
        (tmp_path / "m" / "metrics.txt").mkdir(parents=True)
        assert main(["metrics", "--controlled", str(workspace / "run_c"),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "metrics.txt" in err[0]

    def test_record_cycle_longer_than_the_window_is_incomparable(self, workspace, tmp_path,
                                                                  capsys):
        # a well-formed pair of runs keeping every 120th record, 1 200 s apart
        runs = []
        for name in ("run_c", "run_u"):
            runs.append(shutil.copytree(workspace / name, tmp_path / name))
            header, *rows = (runs[-1] / "results.csv").read_text().splitlines()
            (runs[-1] / "results.csv").write_text("\n".join(
                [header] + [row for row in rows if int(row.split(",")[0]) % 1200 == 0]) + "\n")
            edit_line(runs[-1] / "summary.txt", 1, lambda line: "record_cycle_s = 1200")
        assert main(["metrics", "--controlled", str(runs[0]), "--uncontrolled", str(runs[1]),
                     "--out", str(tmp_path / "m")]) == 5
        assert capsys.readouterr().err == ("error: runs cannot be compared: a 1200 s record "
                                           "cycle is longer than the 600 s window\n")


class TestPopulation:
    @pytest.mark.parametrize("edits, message", [
        ({"window_wall_ratio": "uniform 1.5 2.0"}, "house 0: no valid draw in 100 attempts"),
        # the band a device drifts off in would start at t_max: the engine
        # would raise a ContractError in the run
        ({"n_acl": "60", "deadband": "uniform 1e-300 2e-300", "epsilon_margin_c": "0.0"},
         "house 0: no valid draw in 100 attempts"),
        # net_wall / r_wall overflows in every attempt, first and redrawn
        ({"r_wall": "uniform 1e-320 2e-320"}, "house 0: no valid draw in 100 attempts"),
        # both bounds finite, but not their distance
        ({"floor_area": "uniform -1e308 1e308"},
         "uniform width b - a must be finite, got -1e+308, 1e+308"),
    ], ids=["wwr_above_one", "vanishing_deadband", "overflowing_wall", "overflowing_range"])
    def test_undrawable_population_is_io_error(self, workspace, tmp_path, capsys,
                                               edits, message):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "5",
                     "--n-acl", "20"]) == 0
        capsys.readouterr()
        edit_scenario(scen / "scenario.txt", **edits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            assert main(["train", "--scenario", str(scen / "scenario.txt"),
                         "--out", str(scen / "model.txt")]) == 2
            for flags in (["--uncontrolled"],
                          ["--model", str(workspace / "scen" / "model.txt")]):
                assert main(["run", "--scenario", str(scen / "scenario.txt"), *flags,
                             "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {message}") == 3 and "Traceback" not in err
        assert not (scen / "model.txt").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits", [
        # a NaN parameter would fail every attempt's checks; the load
        # names it instead
        {"air_change_rate": "normal nan 0.06"},
        {"floor_area": "uniform nan 176.0"},
    ], ids=["nan_mean", "nan_low"])
    def test_non_finite_distribution_is_io_error(self, tmp_path, capsys, edits):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "5",
                     "--n-acl", "5"]) == 0
        capsys.readouterr()
        edit_scenario(scen / "scenario.txt", **edits)
        for command in (["train", "--out", str(scen / "model.txt")],
                        ["run", "--uncontrolled", "--out", str(tmp_path / "out")]):
            with time_limit(20.0):
                assert main([*command, "--scenario", str(scen / "scenario.txt")]) == 2
        err = capsys.readouterr().err
        assert err.count("error: distribution parameters must be finite") == 2
        assert "Traceback" not in err
        assert not (scen / "model.txt").exists() and not (tmp_path / "out").exists()


COMMAND_ARGS = {"gen-scenario": ["--out", "o"], "train": ["--scenario", "s", "--out", "o"],
                "run": ["--scenario", "s", "--out", "o"],
                "metrics": ["--controlled", "c", "--uncontrolled", "u", "--out", "o"]}


@pytest.mark.parametrize("command, error, code, line", [
    ("run", NumericAbortError(12), 4, "numeric abort at control cycle 12"),
    ("train", NumericAbortError(12), 4, "numeric abort in training at control cycle 12"),
    ("train", RankDeficientError(["solar"]), 3, "baseline fit failed: feature matrix is "
                                                "rank deficient; degenerate columns: solar"),
    ("metrics", IncomparableRunsError("of x"), 5, "runs cannot be compared: of x"),
    ("metrics", WindowError("of x"), 5, "runs cannot be compared: of x"),
    ("metrics", IsADirectoryError("of x"), 2, "of x"),
    ("gen-scenario", ValueError("of x"), 2, "of x"),
    ("run", PopulationError("of x"), 2, "of x"),
])
def test_main_maps_each_failure_to_its_exit_code(monkeypatch, capsys, command, error, code,
                                                 line):
    def fail(args):
        print("partial output")
        raise error

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), fail)
    assert main([command, *COMMAND_ARGS[command]]) == code
    out, err = capsys.readouterr()
    assert out == "partial output\n" and err == f"error: {line}\n"


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_main_passes_other_errors_through(monkeypatch, command):
    def fail(args):
        raise ContractError("a broken invariant")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), fail)
    with pytest.raises(ContractError):
        main([command, *COMMAND_ARGS[command]])


def cut_trace(path, start, rows):
    """Keep `rows` rows of a trace CSV from row `start`, timed again from 0."""
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + [f"{10 * i},{line.partition(',')[2]}" for i, line
                                          in enumerate(lines[start:start + rows])]) + "\n")


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    """The default scenario at 10 houses: 2 training days and a run of 1 h
    after 30 min, every trace cut to what they need (training to the
    morning, when the sun rises), and a model."""
    scen = tmp_path_factory.mktemp("domain") / "scen"
    assert main(["gen-scenario", "--out", str(scen), "--n-acl", "10",
                 "--training-days", "2"]) == 0
    edit_scenario(scen / "scenario.txt", duration_s=3600, warmup_s=1800)
    cut_trace(scen / "traces.csv", 0, 540)
    for day in range(2):
        cut_trace(scen / f"train_day{day}.csv", 3600, 1260)
    assert main(["train", "--scenario", str(scen / "scenario.txt"),
                 "--out", str(scen / "model.txt")]) == 0
    return scen


def default_values():
    """The text of every value in the default scenario file, by key."""
    text = io.StringIO()
    save_scenario(ScenarioConfig(), text)
    text.seek(0)
    return {key.rpartition(".")[2]: value for key, value in read_keyvals(text).items()}


def scenario_slots():
    """(key, slot) of every value in the default scenario file: slot None
    for a scalar, else the position of a field in a distribution line."""
    slots = []
    for key, value in default_values().items():
        slots += [(key, i) for i in range(3)] if value.startswith(("uniform", "normal")) \
            else [(key, None)]
    return slots


def out_of_domain(edits) -> bool:
    """Whether the domain table, a value's type or a distribution's shape
    refuses the default scenario with these edits."""
    texts = default_values()
    for key, slot, value in edits:
        texts[key] = value if slot is None else " ".join(
            value if i == slot else old for i, old in enumerate(texts[key].split()))
    defaults = {**vars(ScenarioConfig()), **vars(CorrectionParams()),
                **vars(DerivationConstants())}
    scalars = [key for section in ("scenario", "mgcc", "thermal") for key in DOMAINS[section]]
    try:
        check({key: parse(texts[key], type(defaults[key])) for key in scalars})
        dists = {key: Dist.parse(text) for key, text in texts.items() if key not in scalars}
    except ValueError:
        return True
    return not all(contains(key, end) for key in DOMAINS["population"]
                   for end in dists[key].span())


def replace_value(path, key, slot, value):
    pattern = re.compile(rf"^{key} = (.*)$", re.MULTILINE)
    old = pattern.search(path.read_text()).group(1)
    if slot is not None:
        fields = old.split()
        fields[slot] = value
        value = " ".join(fields)
    edit_scenario(path, **{key: value})


BAD_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "1e-300", "5e-324", "warm"]
# edits that once ran to the end, hung, or failed mid-run: each now exits 2 at once
PROBED_EDITS = [[("air_change_rate", 1, "nan")], [("t_set", 2, "nan")],
                [("floor_area", 1, "nan")], [("acl_peak_share", None, "nan")],
                [("wind_capacity_ratio", None, "nan")], [("gamma", None, "nan")],
                [("baseline_bias", None, "nan")], [("baseline_bias", None, "-2.0")],
                [("dp3", None, "1e308")], [("c_air_multiplier", None, "1e-300")],
                [("mass_coupling_ratio", None, "5e-324")], [("baseline_bias", None, "1e308")],
                [("tau_s", None, "inf")], [("t_set", 1, "-1")], [("t_high", 2, "1e308")]]


def test_out_of_domain_follows_the_table():
    # the two thermal constants lie in their rows and fail as the step matrices are made
    assert ([out_of_domain(edits) for edits in PROBED_EDITS]
            == [True] * 9 + [False] * 2 + [True] * 4)
    assert not any(out_of_domain(edits) for edits in (
        [], [("seed", None, "0")], [("tau_s", None, "1e308")], [("t_set", 2, "1e-300")],
        [("r_roof", 1, "1e308")]))


def probed(test):
    for edits in PROBED_EDITS:
        test = example(edits=edits)(test)
    return test


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(scenario_slots()), st.sampled_from(BAD_VALUES))
                      .map(lambda edit: (*edit[0], edit[1])),
                      min_size=1, max_size=2, unique_by=lambda edit: edit[:2]))
@probed
def test_bad_scenario_values_exit_with_a_documented_code(small_scenario, edits):
    with tempfile.TemporaryDirectory() as tmp:
        scen = shutil.copytree(small_scenario, Path(tmp) / "scen")
        for key, slot, value in edits:
            replace_value(scen / "scenario.txt", key, slot, value)
        err = io.StringIO()
        codes = []
        for command in (["train", "--out", f"{tmp}/model.txt"],
                        ["run", "--uncontrolled", "--out", f"{tmp}/free"],
                        ["run", "--model", str(small_scenario / "model.txt"),
                         "--out", f"{tmp}/ctrl"]):
            with time_limit(20.0), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                codes.append(main([*command, "--scenario", str(scen / "scenario.txt")]))
    assert set(codes) <= ({2} if edits in PROBED_EDITS or out_of_domain(edits)
                          else {0, 2, 3, 4}), err.getvalue()
    assert "Traceback" not in err.getvalue()


def refuse_population(*args, **kwargs):
    raise AssertionError("a population was drawn")


@pytest.mark.parametrize("edit, message", [
    ({"tau_s": "inf"}, "tau_s must be in (0, inf), got inf"),
    ((1, "1e308", 500, 501), "trace column t_out_c must be in [-90, 60], got 1e+308 in data "
                             "row 500"),
    ((1, "-1e308", 500, 501), "trace column t_out_c must be in [-90, 60], got -1e+308 in "
                              "data row 500"),
    ((2, "-1e6", 500, 501), "trace column solar_wm2 must be in [0, 1500], got -1000000.0 in "
                            "data row 500"),
    ((3, "1e308", 500, 520), "trace column p_load_kw must be in [0, 2**40], got 1e+308 in "
                             "data row 500"),
], ids=["tau_s_inf", "t_out_c_1e308", "t_out_c_minus_1e308", "solar_wm2_minus_1e6",
        "p_load_kw_1e308"])
def test_out_of_domain_input_exits_2_before_any_house_is_drawn(small_scenario, tmp_path,
                                                               capsys, monkeypatch, edit,
                                                               message):
    # each of these once ran: tau_s = inf to NaN targets and an all-off fleet
    # that every command passed, the traces to an overflow or p* = -2
    scen = shutil.copytree(small_scenario, tmp_path / "scen")
    if isinstance(edit, dict):
        edit_scenario(scen / "scenario.txt", **edit)
    else:
        for name in ("traces.csv", "train_day0.csv"):
            set_trace_column(scen / name, *edit)
    monkeypatch.setattr(cli, "generate_population", refuse_population)
    capsys.readouterr()
    for command in (["train", "--out", str(tmp_path / "model.txt")],
                    ["run", "--uncontrolled", "--out", str(tmp_path / "free")],
                    ["run", "--model", str(scen / "model.txt"),
                     "--out", str(tmp_path / "ctrl")]):
        assert main([*command, "--scenario", str(scen / "scenario.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n" * 3
    assert not any((tmp_path / name).exists() for name in ("model.txt", "free", "ctrl"))


def test_subnormal_thermal_constant_prints_only_the_error(small_scenario, tmp_path, capsys):
    # discretize's arithmetic overflows on the way to its finite check
    scen = shutil.copytree(small_scenario, tmp_path / "scen")
    replace_value(scen / "scenario.txt", "mass_coupling_ratio", None, "5e-324")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in (["train", "--out", str(tmp_path / "model.txt")],
                        ["run", "--uncontrolled", "--out", str(tmp_path / "free")],
                        ["run", "--model", str(small_scenario / "model.txt"),
                         "--out", str(tmp_path / "ctrl")]):
            assert main([*command, "--scenario", str(scen / "scenario.txt")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: a house's thermal step matrices")
                                 for line in err), err


def test_cli_loads_only_numpy_and_the_standard_library():
    # the runtime dependency is numpy only
    code = ("import sys; before = set(sys.modules); import tiesmooth.cli; "
            "print(' '.join(sorted({name.partition('.')[0] "
            "for name in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    loaded = set(proc.stdout.split())
    assert {"numpy", "tiesmooth"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "tiesmooth"} == set()


def test_cli_import_starts_no_thread_and_no_process():
    # a run forks only when it runs, and no module imports `subprocess`;
    # a BLAS's own native threads are not Python threads
    code = ("import os, sys, threading; import tiesmooth.cli\n"
            "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n"
            "    print('no-child')\n"
            "print(threading.active_count(), 'subprocess' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.split() == ["no-child", "1", "False"]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tiesmooth.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-scenario" in proc.stdout
