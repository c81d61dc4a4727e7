"""Command-line pipeline: file emission, exit codes, idempotence."""

import re
import subprocess
import sys

import pytest

from tiesmooth.cli import main


def edit_scenario(path, **replacements):
    text = path.read_text()
    for key, value in replacements.items():
        pattern = re.compile(rf"^{key} = .*$", re.MULTILINE)
        assert pattern.search(text), f"{key} not found in scenario file"
        text = pattern.sub(f"{key} = {value}", text)
    path.write_text(text)


def set_trace_column(path, column, value, start=1):
    """Overwrite one column of a trace CSV from data row `start` on."""
    lines = path.read_text().splitlines()
    for i in range(start, len(lines)):
        cols = lines[i].split(",")
        cols[column] = value
        lines[i] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


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
        edit_scenario(scen / "scenario.txt", duration_s=7200, warmup_s=1800,
                      vary_training_enrollment="false")
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_training_weather_is_numeric_abort(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        set_trace_column(scen / "train_day0.csv", 1, "1e308", start=1000)
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 4

    def test_nan_training_trace_is_io_error(self, tmp_path):
        scen = tmp_path / "scen"
        assert main(["gen-scenario", "--out", str(scen), "--seed", "3",
                     "--n-acl", "8"]) == 0
        set_trace_column(scen / "train_day0.csv", 1, "nan", start=1000)
        assert main(["train", "--scenario", str(scen / "scenario.txt"),
                     "--out", str(scen / "model.txt")]) == 2

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

    def test_malformed_scenario_is_io_error(self, tmp_path):
        scen = tmp_path / "scenario.txt"
        scen.write_text("[scenario]\nthis line is not a setting\n")
        assert main(["run", "--scenario", str(scen), "--uncontrolled",
                     "--out", str(tmp_path / "out")]) == 2

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

    def test_self_comparison_zero_reduction(self, workspace):
        out = workspace / "metrics_self"
        assert main(["metrics", "--controlled", str(workspace / "run_u"),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(out)]) == 0
        text = (out / "metrics.txt").read_text()
        assert "max_fluct_reduction_pct = 0.0" in text

    def test_different_traces_incomparable(self, workspace, tmp_path):
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

    def test_missing_run_dir_is_io_error(self, workspace, tmp_path):
        assert main(["metrics", "--controlled", str(tmp_path / "absent"),
                     "--uncontrolled", str(workspace / "run_u"),
                     "--out", str(tmp_path / "m2")]) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tiesmooth.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-scenario" in proc.stdout
