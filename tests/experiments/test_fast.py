"""Unit tests for the vectorized simulator (repro.backends.fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.fast import (
    FastSimulation,
    FastSimulationConfig,
    NextHopTable,
    cached_next_hop_table,
    cached_overlay,
)
from repro.errors import ConfigurationError
from repro.kademlia.routing import Router


SMALL = FastSimulationConfig(
    n_nodes=80, bits=10, bucket_size=4, originator_share=0.5,
    n_files=30, file_min=5, file_max=20, overlay_seed=3, workload_seed=9,
)


class TestConfig:
    def test_paper_defaults(self):
        config = FastSimulationConfig()
        assert config.n_nodes == 1000
        assert config.bits == 16
        assert config.n_files == 10_000
        assert config.file_min == 100 and config.file_max == 1000

    def test_bucket_zero_override(self):
        config = FastSimulationConfig(bucket_size=4, bucket_zero=20)
        limits = config.overlay_config().limits
        assert limits.capacity(0) == 20
        assert limits.capacity(1) == 4

    def test_bad_pricing_rejected(self):
        with pytest.raises(ConfigurationError):
            FastSimulationConfig(pricing="bogus")

    def test_bad_share_rejected(self):
        with pytest.raises(ConfigurationError):
            FastSimulationConfig(originator_share=1.5)


class TestNextHopTable:
    def test_matches_router_exhaustively(self, small_overlay):
        table = NextHopTable(small_overlay)
        router = Router(small_overlay)
        addresses = small_overlay.addresses
        n = len(small_overlay)
        for origin in addresses[:20]:
            origin_index = small_overlay.index_of(origin)
            for target in range(0, small_overlay.space.size, 5):
                # Coded bands: v < n forwards to v, n <= v < 2n
                # arrives at storer v - n, v >= 2n is a greedy stall.
                coded = int(table.coded_transposed[target, origin_index])
                closest = small_overlay.table(origin).closest_peer(target)
                if (closest ^ target) < (origin ^ target):
                    assert coded < 2 * n
                    assert addresses[coded % n] == closest
                    assert (coded >= n) == (
                        closest == small_overlay.closest_node(target))
                else:
                    assert coded - 2 * n == table.storer[target]

    def test_storer_matches_overlay(self, small_overlay):
        table = NextHopTable(small_overlay)
        for target in range(0, small_overlay.space.size, 7):
            assert (
                small_overlay.addresses[table.storer[target]]
                == small_overlay.closest_node(target)
            )

    def test_wide_space_rejected(self):
        config = FastSimulationConfig(n_nodes=10, bits=24)
        with pytest.raises(ConfigurationError, match="at most"):
            FastSimulation(config)


class TestCaches:
    def test_overlay_cache_reuses_instances(self):
        a = cached_overlay(SMALL.overlay_config())
        b = cached_overlay(SMALL.overlay_config())
        assert a is b

    def test_table_cache_reuses_instances(self):
        overlay = cached_overlay(SMALL.overlay_config())
        assert cached_next_hop_table(overlay) is cached_next_hop_table(overlay)


class TestRun:
    def test_accounting_identities(self):
        result = FastSimulation(SMALL).run()
        assert result.files == 30
        assert result.chunks >= 30 * 5
        # Total forwarded chunk-hops equals total hops.
        assert result.forwarded.sum() == result.total_hops
        # Exactly one paid first hop per non-local chunk.
        assert result.first_hop.sum() == result.chunks - result.local_hits
        # Income was paid out by originators.
        assert result.income.sum() == pytest.approx(
            result.expenditure.sum()
        )
        # The hop histogram accounts for every chunk.
        assert sum(result.hop_histogram.values()) == result.chunks

    def test_first_hop_bounded_by_forwarded(self):
        result = FastSimulation(SMALL).run()
        assert np.all(result.first_hop <= result.forwarded)

    def test_deterministic(self):
        a = FastSimulation(SMALL).run()
        b = FastSimulation(SMALL).run()
        assert np.array_equal(a.forwarded, b.forwarded)
        assert np.allclose(a.income, b.income)

    def test_workload_seed_changes_traffic(self):
        other = FastSimulationConfig(
            **{**SMALL.__dict__, "workload_seed": 10}
        )
        a = FastSimulation(SMALL).run()
        b = FastSimulation(other).run()
        assert not np.array_equal(a.forwarded, b.forwarded)

    def test_summary_text(self):
        result = FastSimulation(SMALL).run()
        text = result.summary()
        assert "F2 Gini" in text and "mean hops" in text

    def test_ginis_in_range(self):
        result = FastSimulation(SMALL).run()
        assert 0.0 <= result.f2_gini() <= 1.0
        assert 0.0 <= result.f1_gini() <= 1.0

    def test_flat_pricing_income_counts_chunks(self):
        config = FastSimulationConfig(
            **{**SMALL.__dict__, "pricing": "flat"}
        )
        result = FastSimulation(config).run()
        assert result.income.sum() == pytest.approx(float(
            result.first_hop.sum()
        ))

    def test_proximity_pricing_runs(self):
        config = FastSimulationConfig(
            **{**SMALL.__dict__, "pricing": "proximity"}
        )
        result = FastSimulation(config).run()
        assert result.income.sum() > 0


class TestMerge:
    def test_merge_adds_counters(self):
        first = FastSimulation(SMALL).run()
        second_config = FastSimulationConfig(
            **{**SMALL.__dict__, "workload_seed": 10}
        )
        second = FastSimulation(second_config).run()
        merged = first.merge(second)
        assert merged.files == first.files + second.files
        assert np.array_equal(
            merged.forwarded, first.forwarded + second.forwarded
        )
        assert merged.chunks == first.chunks + second.chunks

    def test_merge_rejects_different_overlays(self):
        first = FastSimulation(SMALL).run()
        other_config = FastSimulationConfig(
            **{**SMALL.__dict__, "bucket_size": 8}
        )
        other = FastSimulation(other_config).run()
        with pytest.raises(ConfigurationError):
            first.merge(other)
