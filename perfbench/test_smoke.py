"""Smoke test of the benchmark itself: each workload once, at tiny size.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench/test_smoke.py

It checks the output schema, that every printed metric and workload name
matches BENCHMARK.json, that exact counts repeat across runs, and that the
benchmark refuses to run without the package source.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, seed=3, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    return result, [json.loads(line) for line in lines[:-1]]


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workload_names_match_the_benchmark():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


def test_per_layer_metrics_match_the_benchmark():
    declared = _declared("per_layer")
    for name, unit in spans.LAYER_UNITS.items():
        assert declared.pop(name) == unit
    assert set(declared) == {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, preamble = _result(_run(workload, trace=0))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = preamble[0]["provenance"]
    assert {"git_commit", "numpy", "scipy", "blas", "nproc", "mp_start_method"} <= set(provenance)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_exact_counts_repeat(workload):
    first, _ = _result(_run(workload, trace=1))
    second, _ = _result(_run(workload, trace=1))
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == _declared("per_layer")
    values = {name: m["value"] for name, m in first["metrics"].items()}
    for name in spans.EXACT_COUNTS:
        assert values[name] == second["metrics"][name]["value"], name
    assert values["chains.states"] > 0 and values["algorithms.updates"] > 0
    pooled = workload == "narrow_pool"
    assert (values["experiments.worker_busy_s"] > 0) == pooled
    assert (values["experiments.bytes_written"] > 0) == pooled


def test_refuses_to_run_without_the_package_source():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(WORKLOADS[0], trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
