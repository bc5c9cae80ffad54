"""Tests for the storage-incentive experiment (repro.experiments.storage)."""

from __future__ import annotations

import pytest

from repro.experiments.storage import run_storage


@pytest.fixture(scope="module")
def report():
    return run_storage(
        n_files=100, n_nodes=120, n_rounds=120, uploads=40,
        chunks_per_upload=20,
    )


class TestStorageExperiment:
    def test_three_reward_streams(self, report):
        assert len(report.tables[0].rows) == 3

    def test_pot_fully_distributed(self, report):
        assert report.data["pot_remaining"] == pytest.approx(0.0)

    def test_many_distinct_winners(self, report):
        assert report.data["distinct_winners"] > 10

    def test_ginis_in_range(self, report):
        for key in ("storage_gini", "bandwidth_gini", "combined_gini"):
            assert 0.0 <= report.data[key] <= 1.0

    def test_cheater_accounting(self, report):
        assert (
            0 <= report.data["cheaters_detected"]
            <= report.data["cheaters_planted"]
        )

    def test_combined_not_worse_than_lottery(self, report):
        # Adding the broad bandwidth stream to the narrow lottery
        # stream cannot make the combined distribution less equal
        # than the lottery alone.
        assert report.data["combined_gini"] <= report.data["storage_gini"]
