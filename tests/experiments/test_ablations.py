"""Tests for the ablation runners (repro.experiments.ablations)."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    run_baselines,
    run_bucket0,
    run_caching,
    run_caching_fast,
    run_freeriders,
    run_k_sweep,
    run_popularity,
    run_pricing,
)


class TestKSweep:
    def test_fairness_improves_with_k(self):
        report = run_k_sweep(
            n_files=150, n_nodes=200, bucket_sizes=(2, 8, 20)
        )
        series = report.data["series"]
        assert series[20]["f2"] < series[2]["f2"]
        assert series[20]["forwarded"] < series[2]["forwarded"]
        assert series[20]["degree"] > series[2]["degree"]
        assert series[20]["hops"] < series[2]["hops"]


class TestBucket0:
    def test_widening_bucket_zero_helps(self):
        report = run_bucket0(
            n_files=150, n_nodes=200, bucket_zero_sizes=(4, 20)
        )
        series = report.data["series"]
        assert series[20]["f2"] < series[4]["f2"]
        assert series[20]["forwarded"] < series[4]["forwarded"]


class TestPricing:
    @pytest.fixture(scope="class")
    def series(self):
        return run_pricing(n_files=100, n_nodes=150).data["series"]

    def test_three_strategies_reported(self, series):
        assert set(series) == {"xor", "proximity", "flat"}
        for row in series.values():
            assert 0.0 <= row[4] <= 1.0
            assert 0.0 <= row[20] <= 1.0

    @pytest.mark.parametrize("pricing", ["xor", "proximity", "flat"])
    def test_k20_fairer_under_every_pricing(self, series, pricing):
        assert series[pricing][20] < series[pricing][4]

    def test_flat_pricing_no_less_fair_than_xor(self, series):
        # Flat pricing removes price dispersion from the same traffic.
        assert series["flat"][4] <= series["xor"][4] + 0.02


class TestPopularity:
    def test_uniform_baseline_present(self):
        report = run_popularity(
            n_files=100, n_nodes=150, exponents=(1.0,)
        )
        assert "uniform" in report.data["series"]
        assert len(report.data["series"]) == 2
        for value in report.data["series"].values():
            assert 0.0 <= value <= 1.0


class TestCaching:
    def test_caches_reduce_traffic(self):
        report = run_caching(n_files=80, n_nodes=100, catalog_size=20)
        series = report.data["series"]
        assert series["lru"]["forwarded"] < series["none"]["forwarded"]
        assert series["lfu"]["forwarded"] < series["none"]["forwarded"]
        assert series["lru"]["cache_hits"] > 0
        assert series["none"]["cache_hits"] == 0


class TestCachingFast:
    """The §V cache dividend on the vectorized backend."""

    @pytest.fixture(scope="class")
    def series(self):
        return run_caching_fast(
            n_files=400, n_nodes=300, catalog_size=40
        ).data["series"]

    def test_cache_serves_hits(self, series):
        assert series["on"]["cache_hits"] > 0
        assert series["off"]["cache_hits"] == 0

    def test_cache_cuts_forwarding_and_route_length(self, series):
        assert series["on"]["forwarded"] < series["off"]["forwarded"]
        assert series["on"]["hops"] < series["off"]["hops"]


class TestFreeriders:
    def test_defaults_grow_with_fraction(self):
        report = run_freeriders(
            n_files=60, n_nodes=100, fractions=(0.0, 0.4)
        )
        series = report.data["series"]
        assert series[0.0]["defaults"] == 0
        assert series[0.4]["defaults"] > 0

    def test_freeriding_hurts_f2(self):
        report = run_freeriders(
            n_files=60, n_nodes=100, fractions=(0.0, 0.5)
        )
        series = report.data["series"]
        assert series[0.5]["f2"] > series[0.0]["f2"]

    def test_more_riders_default_more(self):
        report = run_freeriders(
            n_files=60, n_nodes=100, fractions=(0.1, 0.5)
        )
        series = report.data["series"]
        assert series[0.5]["defaults"] > series[0.1]["defaults"]


class TestBaselines:
    @pytest.fixture(scope="class")
    def report(self):
        return run_baselines(n_files=120, n_nodes=120)

    def test_ideal_mechanisms_hit_their_bounds(self, report):
        rows = report.data["rows"]
        f2, f1 = rows["per-chunk reward (F1-ideal)"]
        assert f1 == pytest.approx(0.0, abs=1e-9)
        f2, f1 = rows["equal split (F2-ideal)"]
        assert f2 == pytest.approx(0.0, abs=1e-9)

    def test_swap_sits_off_both_ideal_bounds(self, report):
        rows = report.data["rows"]
        swap_f2, swap_f1 = rows["swap"]
        assert swap_f1 > rows["per-chunk reward (F1-ideal)"][1]
        assert swap_f2 > rows["equal split (F2-ideal)"][0]

    def test_tft_swarm_completes(self, report):
        assert report.data["tft_completion"] == 1.0

    def test_all_mechanisms_reported(self, report):
        assert len(report.tables[0].rows) == 5
