"""Batch-size invariance of the streaming aggregator, property-checked.

``repro-swarm serve`` cuts a request stream into micro-epochs of at
most ``--max-batch`` requests and absorbs one result per epoch, so
its aggregate must not depend on where the cuts fall: absorbing a
stream of micro-epoch results one by one must equal absorbing the
results summed over any grouping of them. Incomes are drawn as dyadic
rationals (k / 65536) — the engine's actual price lattice — so float
sums are exact and the law holds with ``==``, not approximately.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import StreamingAggregator
from repro.backends.config import FastSimulationConfig
from repro.backends.result import SimulationResult

N_NODES = 5
ADDRS = np.arange(3, 3 + N_NODES, dtype=np.int64)

CONFIG = FastSimulationConfig(n_nodes=N_NODES)

#: The counters :meth:`StreamingAggregator.absorb` adds up.
SCALARS = ("files", "chunks", "total_hops", "local_hits", "fallbacks",
           "cache_hits", "unavailable")
VECTORS = ("forwarded", "first_hop", "income", "expenditure")


def dyadic_vector(draw, elements):
    """A per-node float vector off the engine's dyadic price lattice."""
    ticks = draw(elements)
    return np.asarray(ticks, dtype=np.float64) / 65536.0


@st.composite
def micro_results(draw):
    """One micro-epoch's result."""
    counts = st.lists(
        st.integers(min_value=0, max_value=50),
        min_size=N_NODES, max_size=N_NODES,
    )
    ticks = st.lists(
        st.integers(min_value=0, max_value=1 << 20),
        min_size=N_NODES, max_size=N_NODES,
    )
    chunks = draw(st.integers(min_value=0, max_value=200))
    return SimulationResult(
        config=CONFIG,
        node_addresses=ADDRS,
        forwarded=np.asarray(draw(counts), dtype=np.int64),
        first_hop=np.asarray(draw(counts), dtype=np.int64),
        income=dyadic_vector(draw, ticks),
        expenditure=dyadic_vector(draw, ticks),
        files=draw(st.integers(min_value=0, max_value=30)),
        chunks=chunks,
        total_hops=draw(st.integers(min_value=0, max_value=500)),
        local_hits=draw(st.integers(min_value=0, max_value=50)),
        fallbacks=draw(st.integers(min_value=0, max_value=50)),
        cache_hits=draw(st.integers(min_value=0, max_value=50)),
        unavailable=draw(st.integers(min_value=0, max_value=chunks)),
        hop_histogram=draw(st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=1, max_value=40),
            max_size=4,
        )),
    )


def zero_result():
    """An empty result over ADDRS (nothing absorbed yet)."""
    return SimulationResult(
        config=CONFIG, node_addresses=ADDRS,
        forwarded=np.zeros(N_NODES, dtype=np.int64),
        first_hop=np.zeros(N_NODES, dtype=np.int64),
        income=np.zeros(N_NODES), expenditure=np.zeros(N_NODES),
    )


def summed(results):
    """One result holding the sum of *results* (one coarser epoch)."""
    total = zero_result()
    for result in results:
        for name in SCALARS + VECTORS:
            setattr(total, name, getattr(total, name)
                    + getattr(result, name))
        for hops, count in result.hop_histogram.items():
            total.hop_histogram[hops] = (
                total.hop_histogram.get(hops, 0) + count
            )
    return total


@settings(max_examples=60, deadline=None)
@given(
    results=st.lists(micro_results(), min_size=1, max_size=8),
    data=st.data(),
)
def test_batch_size_invariance(results, data):
    """Any grouping of the stream into epochs folds to the same state."""
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=len(results) - 1)
        if len(results) > 1 else st.nothing(),
    ), label="cuts"))
    fine = StreamingAggregator(zero_result())
    for result in results:
        fine.absorb(result)
    coarse = StreamingAggregator(zero_result())
    for start, stop in zip([0, *cuts], [*cuts, len(results)]):
        coarse.absorb(summed(results[start:stop]), epochs=stop - start)
    for name in VECTORS:
        np.testing.assert_array_equal(getattr(coarse.result, name),
                                      getattr(fine.result, name))
    for name in SCALARS:
        assert getattr(coarse.result, name) == getattr(fine.result, name)
    assert coarse.epochs == fine.epochs
    assert coarse.result.hop_histogram == fine.result.hop_histogram
    assert coarse.snapshot() == fine.snapshot()
