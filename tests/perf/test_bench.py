"""The ``repro-swarm bench`` gate over synthetic perfbench logs."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.bench import MAX_REGRESSION

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}
CLEAN = {"git_commit": "abc123", "git_dirty": False, "nproc": 2}


def perfbench_log(workload="paper-churn", seed=9001, scale=None,
                  correct=True, attempted=10, failed=0, provenance=CLEAN,
                  result_line=True) -> str:
    """What ``perfbench/run.py --trace 0`` prints for one workload."""
    metrics = {name: 100.0 for name in BETTER}
    metrics.update(scale or {})
    metrics = {name: value for name, value in metrics.items()
               if value is not None}
    lines = [
        "untraced run: 8 passes [0.3, 0.3] s, host slowdown [1.0, 1.0]",
        f"workload {workload} seed {seed}: what the workload measures",
        f"provenance: {json.dumps(provenance, sort_keys=True)}",
        *(f"  {name:28s} {value:16.6f} x" for name, value in metrics.items()),
        f"failed_ratio: {failed}/{attempted}",
    ]
    if result_line:
        lines.append(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in metrics.items()},
        }))
    return "\n".join(lines) + "\n"


@pytest.fixture()
def bench(tmp_path, capsys):
    """Runs ``repro-swarm bench`` on log texts; returns (code, stderr)."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    record = tmp_path / "BENCH_perfbench.json"

    def run(*logs, append=False):
        paths = []
        for i, text in enumerate(logs):
            paths.append(tmp_path / f"log{i}.txt")
            paths[-1].write_text(text)
        argv = ["bench", *map(str, paths), "--record", str(record)]
        code = main(argv + ["--append"] if append else argv)
        return code, capsys.readouterr().err

    assert run(perfbench_log(), perfbench_log("sweep-grid"),
               append=True) == (0, "")
    run.record = record
    return run


def test_help_lists_only_logs_record_and_append(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == ("usage: repro-swarm bench [-h] [--record RECORD] "
                     "[--append] LOG [LOG ...]")
    assert MAX_REGRESSION == 2.0


def test_matching_logs_pass(bench):
    assert bench(perfbench_log(), perfbench_log("sweep-grid")) == (0, "")


@pytest.mark.parametrize("factor, code", [(0.49, 1), (0.51, 0)])
def test_higher_is_better_metric_fails_below_half(bench, factor, code):
    got, err = bench(perfbench_log(scale={"chunks_per_s": 100.0 * factor}))
    assert got == code
    if code:
        assert "paper-churn chunks_per_s" in err


@pytest.mark.parametrize("factor, code", [(2.01, 1), (1.99, 0)])
def test_lower_is_better_metric_fails_above_double(bench, factor, code):
    got, err = bench(perfbench_log(scale={"setup_s": 100.0 * factor}))
    assert got == code
    if code:
        assert "paper-churn setup_s" in err


@pytest.mark.parametrize("metric", sorted(BETTER))
def test_every_end_to_end_metric_is_gated_its_own_way(bench, metric):
    worse = 100.0 / 2.01 if BETTER[metric] == "higher" else 100.0 * 2.01
    code, err = bench(perfbench_log(scale={metric: worse}))
    assert code == 1
    assert f"paper-churn {metric}" in err


@pytest.mark.parametrize("log, words", [
    (perfbench_log(correct=False), ["paper-churn", "correct: false"]),
    (perfbench_log(attempted=10, failed=1),
     ["paper-churn", "failed/attempted 1/10"]),
    (perfbench_log("serve-gateway"), ["serve-gateway", "no run"]),
    (perfbench_log(seed=1), ["paper-churn", "seed 1", "[9001]"]),
    (perfbench_log(scale={"peak_rss_mib": None}),
     ["paper-churn peak_rss_mib", "not in both"]),
    (perfbench_log(result_line=False),
     ["paper-churn", "no JSON result line"]),
    (perfbench_log(result_line=False) + perfbench_log("sweep-grid"),
     ["paper-churn", "no JSON result line"]),
])
def test_refusals_name_the_workload_and_metric(bench, log, words):
    code, err = bench(log)
    assert code == 1
    for word in words:
        assert word in err


def test_a_log_without_runs_is_refused(bench):
    assert bench("perfbench: failed: paper-churn\n")[0] == 1


def test_append_refuses_a_dirty_tree(bench):
    before = bench.record.read_text()
    dirty = {**CLEAN, "git_dirty": True}
    code, err = bench(perfbench_log(provenance=dirty), append=True)
    assert code == 1
    assert "paper-churn: git_dirty: True" in err
    assert bench.record.read_text() == before


def test_the_newest_record_for_the_seed_is_the_baseline(bench):
    faster = perfbench_log(scale={"chunks_per_s": 300.0})
    assert bench(faster, append=True) == (0, "")
    assert bench(perfbench_log())[0] == 1
    assert bench(perfbench_log(scale={"chunks_per_s": 151.0}))[0] == 0


def test_committed_record_is_clean_correct_and_covers_every_workload():
    records = json.loads((REPO / "BENCH_perfbench.json").read_text())
    for record in records:
        assert record["provenance"]["git_dirty"] is False, record["workload"]
        assert record["correct"] is True, record["workload"]
        assert set(record["metrics"]) == set(BETTER)
    workloads = {w["name"] for w in SPEC["workloads"]}
    seeds = {record["seed"] for record in records}
    assert any({r["workload"] for r in records if r["seed"] == seed}
               == workloads for seed in seeds)


@pytest.mark.parametrize("broken, damage", [
    ("log", "missing"), ("log", "not UTF-8"),
    ("record", "not UTF-8"), ("record", "not JSON"),
    ("spec", "missing"), ("spec", "not UTF-8"),
])
def test_an_unreadable_input_is_refused_in_one_line_naming_it(
        bench, tmp_path, capsys, broken, damage):
    log = tmp_path / "perf.log"
    log.write_text(perfbench_log())
    path = {"log": log, "record": bench.record,
            "spec": tmp_path / "BENCHMARK.json"}[broken]
    if damage == "missing":
        path.unlink()
    else:
        path.write_bytes(b"\xff\n" if damage == "not UTF-8" else b"{\n")
    code = main(["bench", str(log), "--record", str(bench.record)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and str(path.resolve()) in err
