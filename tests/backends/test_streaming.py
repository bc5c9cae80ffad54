"""The micro-epoch session (:class:`StreamSession`) the serve daemon drives.

Feeding a configuration's own flattened workload columns through one
session, a slab per epoch (any cut for the static configuration),
must reproduce the one-shot batch run *exactly* — every scalar
counter, every per-node vector (including the float
income/expenditure, which stay exact because chunk prices are dyadic
rationals) and every hop-histogram bucket — on the static golden and
all four scenario goldens. ``tests/integration/test_serve.py`` pins
the same contract end to end, through request-line decoding and
``run_serve``. These tests also pin the session's refusals, that it
restores the shared coded matrix so a second stream matches the
first, and that per-epoch scratch results (the serve pattern) sum to
the batch run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation, StreamSession
from repro.errors import ConfigurationError

from .test_golden import GOLDEN_CONFIG
from .test_golden_scenarios import SCENARIO_GOLDEN_CONFIGS

ALL_CONFIGS = {"static": GOLDEN_CONFIG, **SCENARIO_GOLDEN_CONFIGS}


def assert_identical(batch, streamed) -> None:
    """Every counter, vector and histogram bucket must match exactly."""
    assert streamed.files == batch.files
    assert streamed.chunks == batch.chunks
    assert streamed.total_hops == batch.total_hops
    assert streamed.local_hits == batch.local_hits
    assert streamed.fallbacks == batch.fallbacks
    assert streamed.cache_hits == batch.cache_hits
    assert streamed.unavailable == batch.unavailable
    assert dict(streamed.hop_histogram) == dict(batch.hop_histogram)
    np.testing.assert_array_equal(streamed.node_addresses,
                                  batch.node_addresses)
    np.testing.assert_array_equal(streamed.forwarded, batch.forwarded)
    np.testing.assert_array_equal(streamed.first_hop, batch.first_hop)
    # Exact float equality is intentional: dyadic prices sum without
    # rounding, so streaming must not perturb a single bit.
    np.testing.assert_array_equal(streamed.income, batch.income)
    np.testing.assert_array_equal(streamed.expenditure,
                                  batch.expenditure)


def column_batches(simulation: FastSimulation,
                   config: FastSimulationConfig, max_batch: int):
    """``(files, origins, targets)`` micro-batches of *config*'s workload.

    The flattened columns the one-shot run routes, cut every
    *max_batch* files.
    """
    file_origins, sizes, targets = simulation._flatten_workload(
        config.workload()
    )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    for start in range(0, len(sizes), max_batch):
        stop = min(start + max_batch, len(sizes))
        yield (stop - start,
               np.repeat(file_origins[start:stop], sizes[start:stop]),
               targets[offsets[start]:offsets[stop]])


def session_run(config: FastSimulationConfig, max_batch: int | None = None):
    """Route *config*'s workload through one session, *max_batch* files
    (default: one slab) per epoch."""
    simulation = FastSimulation(config)
    n_epochs = None
    if config.scenario_stack() is not None:
        n_epochs = math.ceil(config.n_files / config.batch_files)
    with StreamSession(simulation, n_epochs=n_epochs) as session:
        for files, origins, targets in column_batches(
                simulation, config, max_batch or config.batch_files):
            session.result.files += files
            session.feed(origins, targets)
    return session.result


class TestFastStreaming:
    @pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
    def test_bit_identical_to_batch(self, name):
        """Slab-sized micro-batches reproduce the batch run exactly."""
        config = ALL_CONFIGS[name]
        assert_identical(FastSimulation(config).run(), session_run(config))

    @pytest.mark.parametrize("max_batch", [1, 7, 1000])
    def test_static_any_batch_size(self, max_batch):
        """Static routing is per-chunk independent: any split is exact."""
        batch = FastSimulation(GOLDEN_CONFIG).run()
        assert_identical(batch, session_run(GOLDEN_CONFIG, max_batch))

    def test_repeated_streams_are_stable(self):
        """Session state fully restores: a second stream matches."""
        config = SCENARIO_GOLDEN_CONFIGS["scenario_churn_caching"]
        assert_identical(session_run(config), session_run(config))


class TestStreamSession:
    def test_scenario_needs_epoch_count(self):
        config = SCENARIO_GOLDEN_CONFIGS["scenario_churn"]
        with pytest.raises(ConfigurationError, match="epoch count"):
            StreamSession(FastSimulation(config))

    def test_overfeeding_a_sized_session_fails(self):
        config = SCENARIO_GOLDEN_CONFIGS["scenario_churn"]
        simulation = FastSimulation(config)
        origins = np.zeros(3, dtype=simulation.table.entry_dtype)
        targets = np.array([1, 2, 3], dtype=np.uint16)
        with StreamSession(simulation, n_epochs=1) as session:
            session.feed(origins, targets)
            with pytest.raises(ConfigurationError, match="sized for"):
                session.feed(origins, targets)

    def test_closed_session_refuses_feeds(self):
        simulation = FastSimulation(GOLDEN_CONFIG)
        session = StreamSession(simulation)
        session.close()
        with pytest.raises(ConfigurationError, match="closed"):
            session.feed(
                np.zeros(1, dtype=simulation.table.entry_dtype),
                np.array([5], dtype=np.uint16),
            )

    def test_close_is_idempotent(self):
        config = SCENARIO_GOLDEN_CONFIGS["scenario_churn"]
        session = StreamSession(FastSimulation(config), n_epochs=4)
        session.close()
        session.close()

    def test_feed_into_scratch_results_sums_to_batch(self):
        """Per-epoch scratch results (the serve pattern) sum exactly."""
        config = GOLDEN_CONFIG
        simulation = FastSimulation(config)
        batch = FastSimulation(config).run()
        total = simulation.new_result()
        with StreamSession(simulation) as session:
            for files, origins, targets in column_batches(
                    simulation, config, 8):
                scratch = simulation.new_result()
                scratch.files += files
                session.feed(origins, targets, into=scratch)
                total.files += scratch.files
                total.chunks += scratch.chunks
                total.total_hops += scratch.total_hops
                total.local_hits += scratch.local_hits
                total.fallbacks += scratch.fallbacks
                total.forwarded += scratch.forwarded
                total.first_hop += scratch.first_hop
                total.income += scratch.income
                total.expenditure += scratch.expenditure
                for hops, count in scratch.hop_histogram.items():
                    total.hop_histogram[hops] = (
                        total.hop_histogram.get(hops, 0) + count
                    )
        assert_identical(batch, total)
