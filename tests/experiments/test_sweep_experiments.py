"""Tests for the replicated registry experiment (``sensitivity``)."""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_experiment
from repro.experiments.sweeps import run_sensitivity
from repro.sweeps import MetricSummary

GRID = {(4, 0.2), (4, 1.0), (20, 0.2), (20, 1.0)}


def cells(report) -> dict:
    """(bucket_size, originator_share) -> CellSummary."""
    return {
        (dict(cell.overrides)["bucket_size"],
         dict(cell.overrides)["originator_share"]): cell
        for cell in report.data["summaries"]
    }


class TestSensitivityGrid:
    """The paper's 2x2 grid with per-cell error bars."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_sensitivity(n_files=40, n_nodes=60, seeds=3)

    def test_error_bars_per_cell(self, report):
        by_cell = cells(report)
        assert set(by_cell) == GRID
        for cell in by_cell.values():
            forwarded = cell.metrics["mean_forwarded"]
            assert isinstance(forwarded, MetricSummary)
            assert forwarded.n == 3
            assert forwarded.low <= forwarded.mean <= forwarded.high
            assert forwarded.std > 0.0  # replicas genuinely vary
        assert len(report.tables[0].rows) == 4

    def test_bandwidth_ordering_survives_replication(self, report):
        by_cell = cells(report)
        for share in (0.2, 1.0):
            assert (by_cell[(20, share)].metrics["mean_forwarded"].mean
                    < by_cell[(4, share)].metrics["mean_forwarded"].mean)

    def test_gini_intervals_and_headline_note(self, report):
        for cell in report.data["summaries"]:
            for key in ("f2_gini", "f1_gini"):
                gini = cell.metrics[key]
                assert gini.n == 3
                assert 0.0 <= gini.mean <= 1.0
                assert gini.low <= gini.mean <= gini.high
        assert any("7% (F2)" in note for note in report.notes)

    def test_one_reduction_row_per_originator_share(self, report):
        assert len(report.tables) == 2
        reductions = report.tables[1]
        assert [row[0] for row in reductions.rows] == ["20%", "100%"]
        assert set(report.data["reductions"]) == {0.2, 1.0}

    def test_cells_replay_the_same_workload_seeds(self, report):
        seeds = {}
        for record in report.data["sweep"].records:
            seeds.setdefault(record["replica"], set()).add(
                record["workload_seed"])
        assert len(seeds) == 3
        assert all(len(cell_seeds) == 1 for cell_seeds in seeds.values())

    def test_registered_with_backend_support(self):
        spec = get_experiment("sensitivity")
        assert spec.supports_backend
        assert spec.runner is run_sensitivity

    def test_single_seed_collapses_to_point_estimates(self):
        report = run_sensitivity(n_files=40, n_nodes=60, seeds=1)
        summaries = [
            *(cell.metrics["mean_forwarded"]
              for cell in report.data["summaries"]),
            *(summary for row in report.data["reductions"].values()
              for summary in row.values()),
        ]
        for summary in summaries:
            assert summary.n == 1
            assert summary.std == 0.0
            assert summary.low == summary.mean == summary.high


class TestSensitivityHeadline:
    """§VI: the paired k=4 -> k=20 reductions across seeds."""

    @pytest.fixture(scope="class")
    def reductions(self):
        return run_sensitivity(
            n_files=150, n_nodes=150, seeds=3
        ).data["reductions"]

    def test_reductions_with_ci(self, reductions):
        assert set(reductions) == {0.2, 1.0}
        for row in reductions.values():
            assert set(row) == {"mean_forwarded", "f2_gini", "f1_gini"}
            for summary in row.values():
                assert summary.n == 3
                assert summary.low <= summary.mean <= summary.high

    @pytest.mark.parametrize("metric", ["f1_gini", "f2_gini",
                                        "mean_forwarded"])
    def test_k20_gain_is_seed_robust(self, reductions, metric):
        summary = reductions[0.2][metric]
        assert summary.mean > 0.0
        assert summary.low > 0.0
