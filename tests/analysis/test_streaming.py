"""Unit tests for the bounded-memory online aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.streaming import StreamingAggregator
from repro.backends.config import FastSimulationConfig
from repro.backends.result import SimulationResult
from repro.errors import ConfigurationError


def result_over(addresses, *, forwarded=None, first_hop=None,
                income=None, expenditure=None, files=0, chunks=0,
                total_hops=0, local_hits=0, fallbacks=0, cache_hits=0,
                unavailable=0, hop_histogram=None):
    """A SimulationResult over *addresses*, zero where not given."""
    n = len(addresses)
    return SimulationResult(
        config=FastSimulationConfig(),
        node_addresses=np.asarray(addresses, dtype=np.int64),
        forwarded=(np.zeros(n, dtype=np.int64) if forwarded is None
                   else np.asarray(forwarded, dtype=np.int64)),
        first_hop=(np.zeros(n, dtype=np.int64) if first_hop is None
                   else np.asarray(first_hop, dtype=np.int64)),
        income=(np.zeros(n) if income is None
                else np.asarray(income, dtype=np.float64)),
        expenditure=(np.zeros(n) if expenditure is None
                     else np.asarray(expenditure, dtype=np.float64)),
        files=files, chunks=chunks, total_hops=total_hops,
        local_hits=local_hits, fallbacks=fallbacks,
        cache_hits=cache_hits, unavailable=unavailable,
        hop_histogram=dict(hop_histogram or {}),
    )


ADDRS = np.array([3, 17, 42, 99], dtype=np.int64)


class TestStreamingAggregator:
    def test_absorb_accumulates_everything(self):
        agg = StreamingAggregator(result_over(ADDRS))
        agg.absorb(result_over(
            ADDRS, forwarded=[1, 0, 2, 0], first_hop=[0, 1, 0, 1],
            income=[0.5, 0.0, 0.25, 0.0],
            expenditure=[0.0, 0.5, 0.0, 0.25],
            files=2, chunks=6, total_hops=9, local_hits=1,
            fallbacks=1, hop_histogram={1: 3, 2: 3},
        ))
        agg.absorb(result_over(
            ADDRS, forwarded=[0, 3, 0, 0], first_hop=[1, 0, 1, 0],
            income=[0.0, 0.75, 0.0, 0.0],
            expenditure=[0.75, 0.0, 0.0, 0.0],
            files=1, chunks=4, total_hops=5, cache_hits=2,
            unavailable=1, hop_histogram={1: 1, 3: 2},
        ))
        assert agg.epochs == 2
        assert agg.result.files == 3
        assert agg.result.chunks == 10
        assert agg.result.total_hops == 14
        assert agg.result.local_hits == 1
        assert agg.result.fallbacks == 1
        assert agg.result.cache_hits == 2
        assert agg.result.unavailable == 1
        assert agg.result.hop_histogram == {1: 4, 2: 3, 3: 2}
        np.testing.assert_array_equal(agg.result.forwarded, [1, 3, 2, 0])
        np.testing.assert_array_equal(agg.result.first_hop, [1, 1, 1, 1])
        np.testing.assert_array_equal(agg.result.income,
                                      [0.5, 0.75, 0.25, 0.0])
        assert agg.result.mean_hops == 14 / 9
        assert agg.result.availability == 0.9

    def test_absorb_rejects_foreign_overlay(self):
        agg = StreamingAggregator(result_over(ADDRS))
        other = result_over(np.array([1, 2, 3, 4], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="overlay"):
            agg.absorb(other)

    def test_empty_metrics_are_defined(self):
        agg = StreamingAggregator(result_over(ADDRS))
        assert agg.result.mean_hops == 0.0
        assert agg.result.availability == 1.0
        snapshot = agg.snapshot()
        assert snapshot["epochs"] == 0

    def test_summary_drops_epochs_and_adds_extras(self):
        agg = StreamingAggregator(result_over(ADDRS))
        agg.absorb(result_over(
            ADDRS, forwarded=[2, 1, 0, 0], first_hop=[1, 1, 1, 1],
            chunks=4, total_hops=6, hop_histogram={1: 2, 2: 2},
        ))
        summary = agg.summary()
        assert "epochs" not in summary
        assert "epochs" in agg.snapshot()
        assert summary["hop_histogram"] == {"1": 2, "2": 2}
        assert summary["mean_forwarded"] == 0.75
        assert "f1_gini" in summary
