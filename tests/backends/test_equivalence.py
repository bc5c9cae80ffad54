"""Two-way backend equivalence and merge/split properties.

The central tentpole guarantee: the batched fast engine and the
object-oriented reference network report identical traffic counters
(and incomes up to float summation order) on a shared overlay and
workload. On top of that, a property test checks that
``SimulationResult.merge`` commutes with splitting the workload — the
paper's multi-machine protocol — under the batched path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FastSimulationConfig, get_backend
from repro.workloads.traces import TraceWorkload, WorkloadTrace


CONFIG = FastSimulationConfig(
    n_nodes=90, bits=11, bucket_size=4, originator_share=0.5,
    n_files=30, file_min=5, file_max=15, overlay_seed=8, workload_seed=3,
)


@pytest.fixture(scope="module")
def two_way():
    batched = get_backend("fast").prepare(CONFIG).run()
    reference = get_backend("reference").prepare(CONFIG).run()
    return batched, reference


class TestTwoWayEquivalence:
    def test_forwarded_identical(self, two_way):
        batched, reference = two_way
        assert np.array_equal(batched.forwarded, reference.forwarded)

    def test_first_hop_identical(self, two_way):
        batched, reference = two_way
        assert np.array_equal(batched.first_hop, reference.first_hop)

    def test_income_matches(self, two_way):
        batched, reference = two_way
        assert np.allclose(batched.income, reference.income)

    def test_expenditure_matches(self, two_way):
        batched, reference = two_way
        assert np.allclose(batched.expenditure, reference.expenditure)

    def test_hop_histogram_identical(self, two_way):
        batched, reference = two_way
        assert batched.hop_histogram == reference.hop_histogram

    def test_scalar_counters_identical(self, two_way):
        batched, reference = two_way
        assert batched.files == reference.files
        assert batched.chunks == reference.chunks
        assert batched.total_hops == reference.total_hops
        assert batched.local_hits == reference.local_hits

    def test_fairness_metrics_match(self, two_way):
        batched, reference = two_way
        assert batched.f2_gini() == pytest.approx(
            reference.f2_gini(), abs=1e-9
        )
        assert batched.f1_gini() == pytest.approx(
            reference.f1_gini(), abs=1e-9
        )


class TestMergeCommutesWithSplit:
    """run(A ++ B) == run(A).merge(run(B)) for the batched engine."""

    @staticmethod
    def _events():
        backend = get_backend("fast").prepare(CONFIG)
        nodes = backend.overlay.address_array()
        return CONFIG.workload().materialize(nodes, backend.overlay.space)

    @settings(max_examples=12, deadline=None)
    @given(split=st.integers(min_value=1, max_value=CONFIG.n_files - 1))
    def test_merge_commutes(self, split):
        events = self._events()
        backend = get_backend("fast").prepare(CONFIG)
        whole = backend.run(TraceWorkload(WorkloadTrace(events)))
        first = backend.run(TraceWorkload(WorkloadTrace(events[:split])))
        second = backend.run(TraceWorkload(WorkloadTrace(events[split:])))
        merged = first.merge(second)
        assert merged.files == whole.files
        assert merged.chunks == whole.chunks
        assert merged.total_hops == whole.total_hops
        assert merged.local_hits == whole.local_hits
        assert merged.hop_histogram == whole.hop_histogram
        assert np.array_equal(merged.forwarded, whole.forwarded)
        assert np.array_equal(merged.first_hop, whole.first_hop)
        assert np.allclose(merged.income, whole.income)
        assert np.allclose(merged.expenditure, whole.expenditure)

    def test_split_matches_generated_workload(self):
        """Materialized-trace replay equals direct generation."""
        backend = get_backend("fast").prepare(CONFIG)
        generated = backend.run()
        replayed = backend.run(TraceWorkload(WorkloadTrace(self._events())))
        assert np.array_equal(generated.forwarded, replayed.forwarded)
        assert np.allclose(generated.income, replayed.income)
