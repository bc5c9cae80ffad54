"""The time backend feeds the fluid wheel by release window.

A run routes slab by slab and admits each slab's routed chunks into
one wheel in windows of ``_WINDOW_CHUNKS`` chunks, so its wheel state
follows the chunks in flight, not the workload: what grows with the
run is only the per-chunk results (``latency_ms`` and the wheel's
per-chunk ``hops``). The window size is internal: any size gives the
same latencies, bit for bit.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.backends import timed
from repro.backends.config import FastSimulationConfig
from repro.backends.timed import TimedSimulation
from repro.perf.bench import LATENCY_PROFILE

BASE = FastSimulationConfig(
    n_nodes=60, n_files=24, workload_seed=11, arrival_seed=12,
    **LATENCY_PROFILE,
)

CONFIGS = {
    "uncapped": BASE,
    "capped": dataclasses.replace(BASE, max_concurrent=2),
    "churn-slabs": dataclasses.replace(
        BASE, n_files=48, batch_files=8, max_concurrent=3,
        scenario="churn:rate=0.2,seed=3"),
    "burst": dataclasses.replace(BASE, arrival_rate=0.0, max_concurrent=2),
}


@pytest.mark.parametrize("window", [7, 500])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_window_size_does_not_move_a_latency(monkeypatch, name, window):
    config = CONFIGS[name]
    expected = TimedSimulation(config).run().latency_ms
    monkeypatch.setattr(timed, "_WINDOW_CHUNKS", window)
    latency = TimedSimulation(config).run().latency_ms
    assert latency.tobytes() == expected.tobytes()


def _traced_run(config: FastSimulationConfig):
    simulation = TimedSimulation(config)
    tracemalloc.start()
    try:
        result = simulation.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_peak_grows_with_the_results_not_the_wheel_words():
    # Three times the files, in 32-file slabs under churn: the extra
    # chunks add their latency slots and hop counts (12 bytes each),
    # but the run's wheel words (8 bytes per data-hop) are never all
    # held at once, so the peak grows by less than they do. Building
    # the wheel over every recorded path grows it by ~7 times more.
    config = FastSimulationConfig(
        n_nodes=400, bits=12, batch_files=32,
        scenario="churn:rate=0.1,seed=3",
        **{**LATENCY_PROFILE, "arrival_rate": 20.0},
    )
    small, small_peak = _traced_run(
        dataclasses.replace(config, n_files=128))
    large, large_peak = _traced_run(
        dataclasses.replace(config, n_files=384))
    assert 0 < large.unavailable < large.chunks
    extra_words = 8 * (large.total_hops - small.total_hops)
    grown = large_peak - small_peak
    assert grown < extra_words, (grown, extra_words)
