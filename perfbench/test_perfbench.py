"""Tests of the repository benchmark, at its smoke size.

Each workload runs once, traced, in a subprocess exactly as the benchmark
is invoked; the traced run measures an untraced phase first, so one run
checks both metric sets.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, HERE)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(HERE)
    return module


run = _load("run")
compare = _load("compare")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _invoke(workload, trace, out_dir, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--size", "smoke", "--out", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_runner():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", ["flow", "montecarlo", "sweep", "serve"])
def test_smoke_run_emits_every_metric(workload, tmp_path):
    proc = _invoke(workload, 1, tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail
    assert result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    for key in ("end_to_end", "traced_end_to_end"):
        assert set(detail[key]) == {name for name, _, _ in run.END_TO_END}
        assert all(m["value"] > 0 and m["samples"] >= 1
                   for m in detail[key].values())
    assert detail["spans"] > 0 and os.path.exists(detail["span_file"])
    assert result["metrics"]["bench.op.calls"]["value"] >= 1
    work = os.path.join(ROOT, ".perfbench-work")
    assert not os.path.isdir(work) or not os.listdir(work)


def test_untraced_run_prints_end_to_end_metrics(tmp_path):
    proc = _invoke("flow", 0, tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("flow", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_times_subtract_covered_child_time():
    tracing = _load("tracing")
    spans = [
        {"trace": "t", "pid": 1, "span": 1, "parent": None, "name": "a",
         "t0": 0.0, "dur_s": 10.0, "attrs": {}},
        {"trace": "t", "pid": 1, "span": 2, "parent": 1, "name": "b",
         "t0": 1.0, "dur_s": 4.0, "attrs": {"samples": 5}},
        {"trace": "t", "pid": 1, "span": 3, "parent": 1, "name": "c",
         "t0": 3.0, "dur_s": 4.0, "attrs": {}},
        {"trace": "t", "pid": 1, "span": 4, "parent": 2, "name": "b",
         "t0": 2.0, "dur_s": 1.0, "attrs": {"samples": 5}},
    ]
    rows = tracing.layer_times(spans)
    assert rows["a"]["self_s"] == pytest.approx(4.0)
    assert rows["b"] == {"s": 4.0, "self_s": pytest.approx(4.0), "calls": 1,
                         "samples": 5}


def _result(workload, trace, metrics):
    return {"detail": {"workload": workload, "trace": trace},
            "result": {"metrics": {name: {"value": value, "unit": "ms"}
                                   for name, value in metrics.items()}}}


def test_compare_marks_wide_spreads_unresolved(tmp_path):
    for side, values in (("a", [100, 101, 99, 100]), ("b", [100, 60, 140, 90])):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in enumerate(values):
            with open(directory / f"flow.seed{seed}.trace0.json", "w") as fh:
                json.dump(_result("flow", 0, {"secondary_op_ms.p50": value,
                                              "primary_op_ms.p50": 300}), fh)
    report = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"),
                             _benchmark_json())
    rows = {line.split()[0]: line.split()[-1] for line in report.splitlines()
            if line.startswith("  ")}
    assert rows == {"secondary_op_ms.p50": "unresolved",
                    "primary_op_ms.p50": "ok"}


def test_speed_factor_is_the_median_of_probes_around_an_operation():
    hostspeed = _load("hostspeed")
    probe = hostspeed.SpeedProbe()
    probe.times = [0.0, 0.5, 1.0, 3.0, 3.2, 3.4, 3.6, 9.0]
    probe.factors = [1.0, 2.0, 3.0, 4.0, 1.5, 1.5, 1.5, 8.0]
    # Every probe within half a second of [3.1, 3.3].
    assert probe.factor(3.1, 3.3) == pytest.approx(1.5)
    # None in the window: the five nearest (0.5 to 3.4) count.
    assert probe.factor(1.8, 2.0) == pytest.approx(2.0)
    assert probe.factor(0.0, 0.1) == pytest.approx(2.0)
    assert probe.measure() > 0 and len(probe.factors) == 9
