"""BENCHMARK.json keeps to its contract and run.py reports what it declares."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_schema():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


def test_every_per_layer_metric_predicts_an_end_to_end_metric():
    spec = load_spec()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    for rule in predictions:
        assert rule["moves"] in end_to_end and set(rule["on"]) <= workloads and rule["why"], rule["prefix"]
    for metric in spec["per_layer"]:
        assert any(metric["name"].startswith(rule["prefix"]) for rule in predictions), metric["name"]


def _run(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "flat_c3", "--size", "quick", "--seconds", "0.5", *extra],
        check=True,
        capture_output=True,
        text=True,
        timeout=170,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_quick_run_reports_every_end_to_end_metric():
    metrics = _run("--trace", "0")
    assert list(metrics) == [metric["name"] for metric in load_spec()["end_to_end"]]
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def test_quick_traced_run_reports_every_per_layer_metric():
    spec = load_spec()
    metrics = _run("--trace", "1")
    assert list(metrics) == [metric["name"] for metric in spec["per_layer"]]
    assert all(math.isfinite(metric["value"]) for metric in metrics.values())
    # flat_c3 reaches the object-path simulator, the selectors and the C3 core.
    for name in ("simulator.engine.run.self_s", "strategies.submit.calls", "core.scheduler.submit.self_s"):
        assert metrics[name]["value"] > 0, name
