"""A scenario run draws each epoch's chunks just before it routes them.

The one-shot run feeds a scenario workload slab by slab, so it holds the
file-level columns plus one ``batch_files`` slab, never the whole
workload's per-chunk columns; and the slab-by-slab draws route exactly
the chunks a whole-workload flatten would.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.backends import FastSimulationConfig
from repro.backends.fast import FastSimulation


def _column_bytes(simulation: FastSimulation) -> int:
    """Bytes of the whole workload's per-chunk origin and target columns."""
    file_origins, sizes, targets = simulation._flatten_workload(
        simulation.config.workload())
    return int(sizes.sum()) * (file_origins.itemsize + targets.itemsize)


def test_scenario_run_holds_one_slab_not_the_workload():
    # ~4.4M chunks (~17 MiB of uint16 columns) in 63 slabs of ~70k.
    simulation = FastSimulation(FastSimulationConfig(
        n_nodes=200, n_files=8000, batch_files=128,
        scenario="churn:rate=0.1,seed=3",
    ))
    columns = _column_bytes(simulation)
    tracemalloc.start()
    try:
        result = simulation.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < result.unavailable < result.chunks
    assert peak < columns / 2, (peak, columns)


def test_slab_draws_route_what_the_whole_columns_route():
    config = FastSimulationConfig(
        n_nodes=120, bits=12, n_files=300, file_min=5, file_max=40,
        batch_files=32, overlay_seed=1, workload_seed=2,
        scenario="churn:rate=0.2,seed=5,recompute=true+caching:size=64",
    )
    simulation = FastSimulation(config)
    streamed = simulation.run()
    whole = simulation.new_result()
    file_origins, sizes, targets = simulation._flatten_workload(
        config.workload())
    assert isinstance(targets, np.ndarray)
    whole.files += len(sizes)
    simulation._route_slabs(file_origins, sizes, targets, whole)
    assert streamed.chunks == whole.chunks == targets.size
    for name in ("forwarded", "first_hop", "income", "expenditure"):
        assert np.array_equal(getattr(streamed, name), getattr(whole, name))
    assert streamed.hop_histogram == whole.hop_histogram
    assert (streamed.unavailable, streamed.cache_hits, streamed.local_hits
            ) == (whole.unavailable, whole.cache_hits, whole.local_hits)
