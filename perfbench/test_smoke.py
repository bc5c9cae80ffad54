"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at tiny scale, traced and untraced, and must report
exactly the metrics ``BENCHMARK.json`` declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_TARGETS, SPEC, WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


def test_every_declared_workload_and_layer_is_implemented():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_TARGETS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    targets = {m["name"] for m in SPEC["end_to_end"]} | {"-"}
    assert all(target in targets and (where == "all" or where in WORKLOADS)
               for target, where in LAYER_TARGETS.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_declared_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_all_runs_every_workload():
    done = _run(ROOT, "--workload", "all", "--seed", "3",
                "--seconds", "0", "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(WORKLOADS)
    assert all(result["correct"] for result in results)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "paper-churn", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
