"""Streaming-vs-batch bit-identity over the golden configurations.

The streaming refactor's acceptance bar: feeding a workload through
``run_stream`` in micro-batches must reproduce the one-shot batch
run *exactly* — every scalar counter, every per-node vector (including
the float income/expenditure, which stay exact because chunk prices
are dyadic rationals), every hop-histogram bucket — on the static
golden configuration and all four scenario goldens, for both the fast
kernel and the time-domain recorder.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation, StreamSession
from repro.backends.timed import TimedSimulation
from repro.errors import ConfigurationError
from repro.workloads.streams import GeneratorStream

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


def stream_run(config: FastSimulationConfig, *, max_batch: int,
               simulation_cls=FastSimulation):
    """Run *config*'s workload through the streaming path."""
    simulation = simulation_cls(config)
    overlay = simulation.overlay
    stream = GeneratorStream(config.workload(), max_batch=max_batch)
    n_epochs = None
    if config.scenario_stack() is not None:
        n_epochs = math.ceil(config.n_files / config.batch_files)
    return simulation.run_stream(
        stream.batches(overlay.address_array(), simulation.space),
        n_epochs=n_epochs,
    )


class TestFastStreaming:
    @pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
    def test_bit_identical_to_batch(self, name):
        """Slab-sized micro-batches reproduce the batch run exactly."""
        config = ALL_CONFIGS[name]
        batch = FastSimulation(config).run()
        streamed = stream_run(config, max_batch=config.batch_files)
        assert_identical(batch, streamed)

    @pytest.mark.parametrize("max_batch", [1, 7, 1000])
    def test_static_any_batch_size(self, max_batch):
        """Static routing is per-chunk independent: any split is exact."""
        batch = FastSimulation(GOLDEN_CONFIG).run()
        streamed = stream_run(GOLDEN_CONFIG, max_batch=max_batch)
        assert_identical(batch, streamed)

    def test_repeated_streams_are_stable(self):
        """Session state fully restores: a second stream matches."""
        config = SCENARIO_GOLDEN_CONFIGS["scenario_churn_caching"]
        first = stream_run(config, max_batch=config.batch_files)
        second = stream_run(config, max_batch=config.batch_files)
        assert_identical(first, second)


class TestTimedStreaming:
    @pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
    def test_bit_identical_to_batch(self, name):
        """Counters AND per-chunk latency samples survive streaming."""
        config = dataclasses.replace(
            ALL_CONFIGS[name], arrival_rate=50.0
        )
        batch = TimedSimulation(config).run()
        streamed = stream_run(
            config, max_batch=config.batch_files,
            simulation_cls=TimedSimulation,
        )
        assert_identical(batch, streamed)
        # Samples come out in chunk order, so compare them unsorted.
        np.testing.assert_array_equal(streamed.latency_ms,
                                      batch.latency_ms)

    def test_contended_wheel_bit_identical(self):
        """Finite bandwidth + concurrency caps stream exactly too."""
        config = dataclasses.replace(
            GOLDEN_CONFIG, arrival_rate=50.0, node_up_mbps=10.0,
            node_down_mbps=20.0, max_concurrent=4,
        )
        batch = TimedSimulation(config).run()
        streamed = stream_run(
            config, max_batch=7, simulation_cls=TimedSimulation,
        )
        assert_identical(batch, streamed)
        np.testing.assert_array_equal(
            np.sort(streamed.latency_ms), np.sort(batch.latency_ms)
        )


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
        stream = GeneratorStream(config.workload(), max_batch=8)
        total = simulation.new_result()
        with StreamSession(simulation) as session:
            for events in stream.batches(
                simulation.overlay.address_array(), simulation.space
            ):
                scratch = simulation.new_result()
                file_origins, sizes, targets = (
                    simulation.flatten_events(events)
                )
                scratch.files += len(sizes)
                session.feed(np.repeat(file_origins, sizes), targets,
                             into=scratch)
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
