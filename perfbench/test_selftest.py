"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Run from the repository root. Each test runs the benchmark command with
`--size tiny` and checks that every metric named in BENCHMARK.json is
emitted and that a corrupted sink record is caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("steady", "hijack", "fleet-onboard")


def _bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def _reported(stdout: str, name: str) -> float:
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"{name} not reported")


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    layers = [m[:2] for m in tracing.PER_LAYER + tracing.SETUP_LAYER] + [tracing.OVERHEAD[:2]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_emits_every_metric(workload):
    proc, result = _bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    for name, unit in bench.END_TO_END:
        assert result["metrics"][name] == {"value": result["metrics"][name]["value"], "unit": unit}
        assert result["metrics"][name]["value"] > 0
    for name, _unit in bench.REPORTED:
        if name != "train_s_per_container" or workload == "fleet-onboard":
            _reported(proc.stdout, name)
    assert _reported(proc.stdout, "error_rate") == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer(workload):
    proc, result = _bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    names = [m[0] for m in tracing.PER_LAYER + tracing.SETUP_LAYER] + [tracing.OVERHEAD[0]]
    assert list(result["metrics"]) == names
    assert "missing layers: none" in proc.stdout
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["events.count"] > 0 and metrics["trace.overhead"] > 0
    assert metrics["summarize.intervals"] == metrics["sinks.requests"] or workload == "fleet-onboard"


@pytest.mark.parametrize("workload", ("steady", "fleet-onboard"))
def test_corrupted_record_is_counted_as_a_failure(workload):
    proc, result = _bench("--workload", workload, "--corrupt-record", "2")
    assert proc.returncode != 0
    assert result is not None and not result["correct"] and result["failed"] == 1
    assert _reported(proc.stdout, "error_rate") > 0
    assert "FAILED:" in proc.stdout


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, result = _bench("--workload", "steady", cwd=bare)
        assert proc.returncode != 0
        assert result is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)
