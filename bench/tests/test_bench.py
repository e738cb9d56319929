"""The benchmark's own tests: one short run per workload and mode.

Run from the root of a checkout with ``python3 -m pytest -q bench/tests``.
Each run is a subprocess, exactly as the benchmark is invoked, so these take
about two minutes.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@functools.cache
def traced(workload):
    return result_of(run_bench(workload, trace=1))[0]


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    result, lines = result_of(run_bench(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("error_rate = 0 ratio") for line in lines)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert {"python", "numpy", "scipy", "blas", "blas_threads"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = traced(workload)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    # One traced pass at --seconds 1: the layers' self times plus the
    # unexplained part make up the whole traced pass.
    pass_s = metrics["trace.traced_compute_s"]["value"]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    unexplained = metrics["trace.unexplained_share"]["value"] * pass_s
    assert math.isclose(self_total + unexplained, pass_s, rel_tol=1e-6)
    assert metrics["cli.modules_loaded"]["value"] > 0


def test_layers_idle_where_the_workloads_say():
    a, s = traced("axioms-triangle")["metrics"], traced("sie-paths")["metrics"]
    assert a["space.triangle_cells"]["value"] == 3 * 24 * 23 * 22 * 50 * 50
    assert a["stochastic.sie_solve_s"]["value"] == 0 and a["solver.picard_s"]["value"] == 0
    assert 0.05 < a["space.sample_acceptance"]["value"] < 1.0
    for idle in ("dist.eval_calls", "tnorm.apply_calls", "space.distance_calls", "contract.mapping_calls"):
        assert s[idle]["value"] == 0, idle
    assert s["rng.path_generator_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
