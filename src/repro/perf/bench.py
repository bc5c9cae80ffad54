"""The ``repro-swarm bench`` gate over the benchmark of record.

``perfbench/run.py`` measures each workload and prints, among other
lines, ``workload NAME seed N: ...``, ``provenance: {...}`` and one
final JSON line with the checks' verdict and the end-to-end metrics.
:func:`read_runs` reads those lines back from saved logs;
:func:`compare` holds each run against the newest committed record
for its workload and seed (``BENCH_perfbench.json``) and reports
every end-to-end metric more than :data:`MAX_REGRESSION` times worse.
Which way is worse comes from ``end_to_end[].better`` in the
``BENCHMARK.json`` beside the record file. The factor is loose on
purpose: shared hosts are noisy, and the gate is there to catch a
lost kernel speed-up, not percent-level drift.

A perf change appends its own runs to the record
(``repro-swarm bench LOG... --append``), from a clean tree only.
"""

from __future__ import annotations

import json
import re

from .._files import TextLines
from ..errors import ConfigurationError

__all__ = ["LATENCY_PROFILE", "MAX_REGRESSION", "read_json", "read_runs",
           "compare"]

#: The time-domain workload: contended fair-share bandwidth with
#: Poisson arrivals and 10 ms completion slots — dense enough that
#: the event wheel (not the analytic fast path) is what's measured.
LATENCY_PROFILE = {
    "hop_latency_ms": 30.0,
    "node_up_mbps": 50.0,
    "node_down_mbps": 50.0,
    "arrival_rate": 200.0,
    "time_quantum_ms": 10.0,
}

#: How many times worse than its record an end-to-end metric may be.
MAX_REGRESSION = 2.0

_WORKLOAD_LINE = re.compile(r"workload (\S+) seed (-?\d+):")


def read_runs(paths) -> list[dict]:
    """One record per ``workload`` line in the perfbench logs *paths*."""
    runs = []
    for path in paths:
        run = None
        with TextLines(path, "perfbench log") as lines:
            for line in lines:
                head = _WORKLOAD_LINE.match(line)
                if head:
                    if run is not None:
                        break  # the open run has no result line
                    run = {"workload": head[1], "seed": int(head[2]),
                           "provenance": {}}
                elif run is None:
                    continue
                elif line.startswith("provenance: "):
                    run["provenance"] = json.loads(line[len("provenance: "):])
                elif line.startswith('{"correct"'):
                    result = json.loads(line)
                    runs.append({**run, "correct": result["correct"],
                                 "attempted": result["attempted"],
                                 "failed": result["failed"],
                                 "metrics": {name: metric["value"]
                                             for name, metric
                                             in result["metrics"].items()}})
                    run = None
        if run is not None:
            raise ConfigurationError(
                f"{path}: workload {run['workload']} has no JSON result "
                f"line after its workload line")
    return runs


def read_json(path, what: str):
    """The JSON document in *path*; a file that cannot be read or
    parsed is refused by name (:class:`ConfigurationError`)."""
    with TextLines(path, what) as lines:
        text = "".join(lines)
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"cannot read {what} {path}: not JSON ({error})") from None


def compare(runs, records, better) -> list[str]:
    """Problems of *runs* against *records* (empty when the gate passes).

    *better* maps each end-to-end metric to ``"higher"`` or ``"lower"``.
    """
    problems = []
    for run in runs:
        name = run["workload"]
        if not run["correct"]:
            problems.append(f"{name}: correct: false (an output check "
                            f"failed)")
        same = [r for r in records if r["workload"] == name]
        if not same:
            problems.append(f"{name}: the record has no run of this "
                            f"workload")
            continue
        record = next((r for r in reversed(same)
                       if r["seed"] == run["seed"]), None)
        if record is None:
            problems.append(
                f"{name}: seed {run['seed']} is not in the record (seeds "
                f"{sorted({r['seed'] for r in same})})")
            continue
        if run["failed"] * record["attempted"] > (record["failed"]
                                                  * run["attempted"]):
            problems.append(
                f"{name}: failed/attempted {run['failed']}/"
                f"{run['attempted']} is above the record's "
                f"{record['failed']}/{record['attempted']}")
        for metric, direction in better.items():
            value = run["metrics"].get(metric)
            base = record["metrics"].get(metric)
            if value is None or base is None:
                problems.append(f"{name} {metric}: not in both the log "
                                f"and the record")
            elif (value * MAX_REGRESSION < base if direction == "higher"
                    else value > base * MAX_REGRESSION):
                problems.append(
                    f"{name} {metric}: {value:.6g} is more than "
                    f"{MAX_REGRESSION:g}x worse than the record's "
                    f"{base:.6g} (commit "
                    f"{record['provenance'].get('git_commit')})")
    return problems
