"""Self-tests of the benchmark: span arithmetic, absent layers, seeded inputs.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
from spans import EntryPoint, Tracer, absent_spans, instrumented

sys.path.insert(0, str(run.SRC))


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    layers = tracer.layers()
    assert {k: (v.total_s, v.self_s, v.count) for k, v in layers.items()} == {
        "root": (10, 3, 1), "a": (3, 2, 1), "c": (1, 1, 1), "b": (4, 4, 1)}
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_nested_spans_of_one_name_are_counted_once_in_total():
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4]))
    outer = tracer.open("gen")
    inner = tracer.open("gen")
    tracer.close(inner)
    tracer.close(outer)
    layer = tracer.layers()["gen"]
    assert (layer.total_s, layer.self_s, layer.count) == (4, 4, 2)


def test_missing_entry_point_is_reported_absent_and_originals_restored(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    points = [EntryPoint("fake.work", "fake_layer", "work"),
              EntryPoint("fake.gone", "fake_layer", "renamed_away"),
              EntryPoint("fake.gone", "no_such_module", "work")]
    tracer = Tracer()
    with instrumented(tracer, points) as missing:
        assert module.work(1) == 2
    assert module.work is original
    assert absent_spans(points, missing) == {"fake.gone"}
    assert tracer.layers()["fake.work"].count == 1


def test_absent_layers_are_left_out_of_the_per_layer_metrics():
    episode = run.Episode(layers={}, values={}, cycle_s=[],
                          absent={"market.curve", "mgcc.cycle"})
    m = run.Measurement(setup_s=[1.0], wall_s=[2.0], traced_wall_s=[2.5],
                        outcomes=[], setup_episodes=[], timed_episodes=[episode])
    metrics, absent = run.per_layer_metrics(m)
    assert absent == {"market.curve", "mgcc.cycle"}
    assert "market.curve_s" not in metrics and "mgcc.cycle_p99_ms" not in metrics
    assert "market.clear_s" in metrics
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(v) for v in range(20)]) == (50.0, 9.0)


def _kernel_inputs(seed: int, tmp: Path) -> str:
    workload = run.Kernel(seed, tmp)
    workload.n = 20
    workload.setup()
    return workload.input_hash


def _cli_inputs(seed: int, out: Path) -> str:
    from tiesmooth import cli
    error, _ = run.call_cli(cli, ["gen-scenario", "--out", str(out), "--seed", str(seed),
                                  "--n-acl", "20", "--training-days", "1"])
    assert error is None
    return run.sha256_files(run.generated_inputs(out, 1))


@pytest.mark.parametrize("digest", [_kernel_inputs, _cli_inputs])
def test_input_hashes_follow_the_seed(digest, tmp_path):
    first = digest(7, tmp_path / "a")
    assert digest(7, tmp_path / "b") == first
    assert digest(8, tmp_path / "c") != first


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_specs()
