"""Property-based tests for workload generation (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.address import AddressSpace
from repro.workloads.distributions import OriginatorPool, UniformFileSize
from repro.workloads.generators import DownloadWorkload


@st.composite
def workloads(draw):
    n_files = draw(st.integers(min_value=1, max_value=30))
    share = draw(st.floats(min_value=0.05, max_value=1.0))
    low = draw(st.integers(min_value=1, max_value=20))
    high = draw(st.integers(min_value=low, max_value=low + 30))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return DownloadWorkload(
        n_files=n_files,
        originators=OriginatorPool(share=share),
        file_size=UniformFileSize(low=low, high=high),
        seed=seed,
    )


NODES = np.arange(64, dtype=np.uint64)
SPACE = AddressSpace(10)


class TestWorkloadProperties:
    @given(workloads())
    @settings(max_examples=60)
    def test_every_event_well_formed(self, workload):
        events = workload.materialize(NODES, SPACE)
        assert len(events) == workload.n_files
        pool_size = workload.originators.pool_size(len(NODES))
        originators = set()
        for event in events:
            originators.add(event.originator)
            assert event.originator in NODES
            assert workload.file_size.low <= event.n_chunks
            assert event.n_chunks <= workload.file_size.high
            assert event.chunk_addresses.max() < SPACE.size
        assert len(originators) <= pool_size

    @given(workloads())
    @settings(max_examples=30)
    def test_streaming_equals_materialized(self, workload):
        streamed = list(workload.events(NODES, SPACE))
        materialized = workload.materialize(NODES, SPACE)
        for a, b in zip(streamed, materialized):
            assert a.originator == b.originator
            assert np.array_equal(a.chunk_addresses, b.chunk_addresses)

    @given(workloads(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_pool_seed_fixes_the_pool(self, workload, pool_seed):
        import dataclasses

        a = dataclasses.replace(workload, pool_seed=pool_seed, seed=1)
        b = dataclasses.replace(workload, pool_seed=pool_seed, seed=2)
        pool_a = {e.originator for e in a.events(NODES, SPACE)}
        pool_b = {e.originator for e in b.events(NODES, SPACE)}
        # Different traffic seeds, same eligible pool: the union stays
        # within a single pool-sized subset.
        pool_size = workload.originators.pool_size(len(NODES))
        assert len(pool_a | pool_b) <= pool_size


class TestPiecewiseDraws:
    """The generator behaviour a slab-by-slab scenario run rests on."""

    @given(st.integers(min_value=0, max_value=2**63),
           st.integers(min_value=1, max_value=2**32),
           st.lists(st.integers(min_value=0, max_value=400), max_size=8))
    @settings(max_examples=80)
    def test_split_uint32_draws_equal_one_call(self, seed, high, parts):
        # Bounded uint32 draws (any range up to 2**32) yield the same
        # values whether taken in one call or cut at arbitrary points.
        whole = np.random.default_rng(seed).integers(
            0, high, size=sum(parts), dtype=np.uint32)
        rng = np.random.default_rng(seed)
        pieces = [rng.integers(0, high, size=part, dtype=np.uint32)
                  for part in parts]
        joined = (np.concatenate(pieces) if pieces
                  else np.empty(0, dtype=np.uint32))
        assert np.array_equal(joined, whole)
