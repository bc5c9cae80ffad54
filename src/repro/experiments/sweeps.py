"""Replicated paper experiments: the sweep report and the one runner.

The paper's Table I and Figs. 4-6 numbers are single-seed point
estimates. :func:`sweep_report` renders any
:class:`~repro.sweeps.SweepResult` as one row per cell, mean [95%
CI] across workload-seed replicas (the ``repro-swarm sweep`` output).
:func:`run_sensitivity` is the registry's replicated experiment: the
paper's 2x2 grid as a :class:`~repro.sweeps.SweepSpec` run by
:func:`~repro.sweeps.run_sweep`, plus the paired k=4 -> k=20
reductions. Seed derivation, execution and aggregation all live in
:mod:`repro.sweeps`; other grids are ``repro-swarm sweep --grid ...
--seeds N``.
"""

from __future__ import annotations

from ..analysis.reports import Table
from ..backends.config import FastSimulationConfig
from ..errors import ConfigurationError
from ..sweeps import SweepResult, SweepSpec, run_sweep
from ..sweeps.aggregate import MetricSummary, summarize_metric
from .paper import GRID_BUCKET_SIZES, GRID_ORIGINATOR_SHARES
from .report import ExperimentReport

__all__ = ["sweep_report", "run_sensitivity"]

#: Metrics shown, in order, by the generic sweep report table.
REPORT_METRICS = (
    ("mean_forwarded", "forwarded/node"),
    ("f2_gini", "F2 Gini"),
    ("f1_gini", "F1 Gini"),
    ("mean_hops", "mean hops"),
)


def sweep_report(sweep: SweepResult, *, name: str,
                 title: str) -> ExperimentReport:
    """Generic report for any sweep: one row per cell, mean [95% CI].

    Shared by the ``repro-swarm sweep`` CLI and
    :func:`run_sensitivity`; ``report.data`` keeps the summaries and
    the full :class:`~repro.sweeps.SweepResult` for tests and
    downstream analysis.
    """
    report = ExperimentReport(name=name, title=title)
    table = Table(
        title=(
            f"per-cell mean [95% CI] over {sweep.spec.seeds} workload "
            f"seed(s)"
        ),
        headers=["backend", "cell", "n",
                 *(label for _, label in REPORT_METRICS)],
    )
    for cell in sweep.summaries:
        table.add_row(
            cell.backend, cell.label, cell.replicas,
            *(str(cell.metrics[key]) for key, _ in REPORT_METRICS),
        )
    report.add_table(table)
    if sweep.executed:
        report.add_note(
            f"executed {sweep.executed} point(s) in {sweep.elapsed:.1f}s "
            f"({sweep.points_per_second:.1f} points/s)"
            + (f"; resumed {sweep.resumed} from store" if sweep.resumed
               else "")
        )
    elif sweep.resumed:
        report.add_note(
            f"all {sweep.resumed} point(s) resumed from store"
        )
    report.data["summaries"] = sweep.summaries
    report.data["sweep"] = sweep
    return report


#: Metrics whose paired k=4 -> k=20 reduction the sensitivity runner
#: reports, in order.
PAIRED_METRICS = REPORT_METRICS[:3]


def _percent(summary: MetricSummary) -> str:
    if summary.n < 2:
        return f"{summary.mean:+.1%}"
    return f"{summary.mean:+.1%} [{summary.low:+.1%}, {summary.high:+.1%}]"


def run_sensitivity(n_files: int = 1000, n_nodes: int = 500, *,
                    seeds: int = 5,
                    backend: str = "fast") -> ExperimentReport:
    """The paper's 2x2 grid replicated over workload seeds.

    Table I and Figs. 4-6 come from one seed. This sweeps the same
    grid over *seeds* replicas with :func:`~repro.sweeps.run_sweep`,
    reports each cell's mean [95% CI], and then the §VI headline: the
    relative k=4 -> k=20 reduction of forwarded chunks, F2 and F1 at
    each originator share. Every cell replays the same workload seeds,
    so each replica's reduction is a paired difference.
    """
    sweep = run_sweep(SweepSpec(
        base=FastSimulationConfig(n_nodes=n_nodes, n_files=n_files),
        grid={
            "bucket_size": GRID_BUCKET_SIZES,
            "originator_share": GRID_ORIGINATOR_SHARES,
        },
        backends=(backend,),
        seeds=seeds,
    ))
    report = sweep_report(
        sweep, name="sensitivity",
        title=(
            f"Paper grid replicated over {seeds} seeds "
            f"({n_files} downloads/seed, {n_nodes} nodes)"
        ),
    )
    metrics = {
        (record["overrides"]["bucket_size"],
         record["overrides"]["originator_share"], record["replica"]):
        record["metrics"]
        for record in sweep.records
    }
    small, large = GRID_BUCKET_SIZES[0], GRID_BUCKET_SIZES[-1]
    table = Table(
        title=(
            f"paired reduction k={small} -> k={large}, mean [95% CI] "
            f"over {seeds} seed(s)"
        ),
        headers=["originators", *(label for _, label in PAIRED_METRICS)],
    )
    reductions: dict[float, dict[str, MetricSummary]] = {}
    for share in GRID_ORIGINATOR_SHARES:
        row = {}
        for key, _ in PAIRED_METRICS:
            deltas = []
            for replica in range(seeds):
                before = metrics[(small, share, replica)][key]
                if before == 0:
                    raise ConfigurationError(
                        f"{key} is 0 at k={small}, {share:.0%} "
                        f"originators; its relative reduction is "
                        f"undefined"
                    )
                after = metrics[(large, share, replica)][key]
                deltas.append((before - after) / before)
            row[key] = summarize_metric(deltas)
        table.add_row(f"{share:.0%}",
                      *(_percent(row[key]) for key, _ in PAIRED_METRICS))
        reductions[share] = row
    report.add_table(table)
    report.add_note(
        "the paper reports single-seed Gini reductions of 7% (F2) and 6% "
        "(F1); an interval that excludes 0 shows the direction survives "
        "seed noise"
    )
    report.data["reductions"] = reductions
    return report
