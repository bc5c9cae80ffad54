"""Tests for the extension experiments (repro.experiments.extensions)."""

from __future__ import annotations

import pytest

from repro.experiments.extensions import (
    run_churn,
    run_churn_fast,
    run_latency,
    run_overhead,
    run_privacy,
    run_sensitivity,
)


class TestOverhead:
    @pytest.fixture(scope="class")
    def report(self):
        return run_overhead(n_files=150, n_nodes=200)

    def test_both_bucket_sizes_reported(self, report):
        assert set(report.data["series"]) == {4, 20}

    def test_k20_pays_more_overhead(self, report):
        series = report.data["series"]
        # k=20 has ~4x the connections, so a larger overhead share.
        assert series[20]["share"] > series[4]["share"]

    def test_net_below_gross(self, report):
        for row in report.data["series"].values():
            assert row["net"] <= row["gross"]


class TestChurn:
    @pytest.fixture(scope="class")
    def report(self):
        return run_churn(n_files=40, n_nodes=100)

    def test_static_scenario_fully_available(self, report):
        assert report.data["series"]["static"]["availability"] == 1.0

    def test_churn_costs_availability(self, report):
        series = report.data["series"]
        assert series["churning"]["availability"] < 1.0
        assert series["churning"]["departures"] > 0

    def test_availability_tracks_the_live_fraction(self, report):
        # Single-storer placement: little better than the live share.
        churning = report.data["series"]["churning"]
        assert churning["availability"] < churning["live_fraction"] + 0.25


class TestChurnFast:
    @pytest.fixture(scope="class")
    def series(self):
        return run_churn_fast(n_files=400, n_nodes=300).data["series"]

    def test_static_fully_available(self, series):
        assert series[0.0]["availability"] == 1.0

    @pytest.mark.parametrize("fraction", [0.1, 0.3])
    def test_availability_falls_with_the_offline_fraction(self, series,
                                                          fraction):
        row = series[fraction]
        assert row["availability"] < 1.0
        # Not much better than the live fraction under single storers.
        assert row["availability"] < (1.0 - fraction) + 0.25

    @pytest.mark.parametrize("fraction", [0.1, 0.3])
    def test_rereplication_recovers_availability(self, series, fraction):
        row = series[fraction]
        assert row["rereplicated_availability"] > row["availability"]


class TestLatency:
    def test_mean_latency_falls_with_k(self):
        series = run_latency(n_files=150, n_nodes=200).data["series"]
        means = [series[k]["mean_ms"] for k in sorted(series)]
        assert all(a > b for a, b in zip(means, means[1:]))


class TestPrivacy:
    @pytest.fixture(scope="class")
    def report(self):
        return run_privacy(n_files=20, n_nodes=150, lookups_per_file=3)

    def test_iterative_exposes_more_identities(self, report):
        # Forwarding exposes the requester to one first hop only.
        assert report.data["mean_exposure"] > 3.0
        assert report.data["mean_rounds"] >= 1.0

    def test_table_has_both_schemes(self, report):
        assert len(report.tables[0].rows) == 2


class TestSensitivity:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_sensitivity(
            n_files=150, n_nodes=150, n_replications=3
        ).data["outcomes"]

    def test_reductions_with_ci(self, outcomes):
        assert set(outcomes) == {"F1", "F2"}
        for outcome in outcomes.values():
            low, high = outcome["ci"]
            assert low <= outcome["mean_reduction"] <= high

    @pytest.mark.parametrize("prop", ["F1", "F2"])
    def test_k20_gain_is_seed_robust(self, outcomes, prop):
        assert outcomes[prop]["mean_reduction"] > 0.0
        assert outcomes[prop]["ci"][0] > 0.0
