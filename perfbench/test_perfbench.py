"""Tests of the benchmark itself, on its tiny ``--smoke`` inputs.

Run with ``python3 -m pytest perfbench``; the repository's own test run
collects only ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    res = result_line(bench("--workload", workload, "--seed", "3",
                            "--seconds", "0.1", "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_traced_counts():
    res = result_line(bench("--workload", "cli-studies-1d", "--seed", "3",
                            "--seconds", "0.1", "--trace", "1", "--smoke"))
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
    # every step runs two face divergences under Heun, each one kernel call per axis
    assert metrics["sim._face_divergence.calls"] >= 2 * metrics["sim.step.calls"] > 0
    assert metrics["flux.solve_fluxes_batch.calls"] >= metrics["sim._face_divergence.calls"]
    assert metrics["flux.assemble_operator.calls"] == 0
    assert metrics["cli.main.wall_s"] >= metrics["suites.execute.wall_s"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-certify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    assert workloads.make_inputs("run-2d-dense", 5) != workloads.make_inputs("run-2d-dense", 6)
    a = workloads.make_inputs("run-2d-dense", 5)
    assert a["steps"] == workloads.make_inputs("run-2d-dense", 6)["steps"]


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("sim.inner", lambda: None)
    outer = tr.wrap("sim.outer", lambda: (inner(), inner()))
    outer()
    table = tr.summary()["functions"]
    # outer spans 0..10 and holds two inner spans of 2 s each
    assert table["sim.outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert table["sim.inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
