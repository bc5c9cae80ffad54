"""Property tests for replica-seed derivation and sweep aggregation.

Two invariants the sweep engine's parallel correctness rests on:

* :func:`repro.sweeps.replica_seeds` never hands two replicas the
  same workload seed (distinct streams), and each replica's seed is a
  pure function of ``(entropy, replica)`` — independent of how many
  replicas are requested;
* :func:`repro.sweeps.aggregate_records` is invariant to the order
  the per-point records arrive in (mean/std/CI are computed after
  sorting by replica), so executor scheduling can never change a
  summary bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.config import FastSimulationConfig
from repro.sweeps import (
    SweepSpec,
    aggregate_records,
    replica_seeds,
)

from ..sweeps.seed_oracle import replica_seed

entropies = st.integers(min_value=0, max_value=2**64 - 1)

metric_values = st.floats(
    min_value=-1e9, max_value=1e9,
    allow_nan=False, allow_infinity=False,
)

TINY = FastSimulationConfig(
    n_nodes=40, bits=10, n_files=4, file_min=2, file_max=4
)


@settings(max_examples=50, deadline=None)
@given(entropy=entropies, n=st.integers(min_value=2, max_value=128))
def test_replica_seed_streams_never_collide(entropy, n):
    seeds = replica_seeds(entropy, n)
    assert len(set(seeds)) == n
    # And the RNG streams they seed are genuinely distinct, not just
    # distinct integers.
    first_draws = {
        int(np.random.default_rng(seed).integers(0, 2**63))
        for seed in seeds[: min(n, 8)]
    }
    assert len(first_draws) == min(n, 8)


@settings(max_examples=50, deadline=None)
@given(entropy=entropies, n=st.integers(min_value=1, max_value=64),
       extra=st.integers(min_value=1, max_value=64))
def test_replica_seed_is_prefix_stable(entropy, n, extra):
    # Requesting more replicas must not disturb earlier ones; this is
    # what lets a resumed sweep with a raised seed count keep every
    # already-computed point.
    assert replica_seeds(entropy, n + extra)[:n] == replica_seeds(entropy, n)
    assert replica_seed(entropy, n - 1) == replica_seeds(entropy, n)[n - 1]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(metric_values, min_size=1, max_size=16),
    data=st.data(),
)
def test_aggregation_invariant_to_replica_order(values, data):
    spec = SweepSpec(base=TINY, seeds=len(values))
    records = [
        {
            "point_id": f"fast||r{replica}",
            "backend": "fast",
            "overrides": {},
            "replica": replica,
            "workload_seed": replica,
            "metrics": {"metric": value},
        }
        for replica, value in enumerate(values)
    ]
    shuffled = data.draw(st.permutations(records))

    canonical = aggregate_records(spec, records)
    reordered = aggregate_records(spec, shuffled)
    assert canonical == reordered  # exact, bit-for-bit float equality

    summary = canonical[0].metrics["metric"]
    assert summary.n == len(values)
    if len(values) >= 2:
        assert summary.low <= summary.mean <= summary.high
    else:
        assert summary.low == summary.mean == summary.high
