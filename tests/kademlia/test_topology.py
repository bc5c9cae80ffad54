"""Unit tests for topology diagnostics (repro.kademlia.topology)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kademlia.topology import degree_stats

from .overlay_oracle import is_fully_routable


class TestDegreeStats:
    def test_values_consistent(self, small_overlay):
        stats = degree_stats(small_overlay)
        degrees = [
            len(small_overlay.table(a)) for a in small_overlay.addresses
        ]
        assert stats.n_nodes == len(small_overlay)
        assert stats.min_degree == min(degrees)
        assert stats.max_degree == max(degrees)
        assert stats.total_edges == sum(degrees)
        assert stats.mean_degree == pytest.approx(np.mean(degrees))

    def test_str_mentions_counts(self, small_overlay):
        text = str(degree_stats(small_overlay))
        assert str(len(small_overlay)) in text

    def test_wider_buckets_mean_higher_degree(self, medium_overlay,
                                              wide_overlay):
        assert (
            degree_stats(wide_overlay).mean_degree
            > degree_stats(medium_overlay).mean_degree
        )


class TestRoutability:
    def test_small_overlay_fully_routable(self, small_overlay):
        assert is_fully_routable(small_overlay)
