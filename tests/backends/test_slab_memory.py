"""A scenario run draws each epoch's chunks one slab ahead of routing.

The one-shot run feeds a scenario workload slab by slab, drawing the
next slab on a helper thread while one routes, so it holds the
file-level columns plus two ``batch_files`` slabs, never the whole
workload's per-chunk columns; and the slab-by-slab draws route exactly
the chunks a whole-workload flatten would.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.backends import FastSimulationConfig
from repro.backends.fast import FastSimulation, NextHopTable

from .test_block_split import assert_same_result


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
    assert_same_result(whole, streamed)


def test_failing_draw_ahead_raises_and_leaves_the_table_pristine(
        monkeypatch):
    config = FastSimulationConfig(
        n_nodes=120, n_files=60, batch_files=10,
        scenario="churn:rate=0.3,seed=5,recompute=true",
    )
    simulation = FastSimulation(config)
    pristine = NextHopTable(simulation.overlay).coded_transposed
    columns = FastSimulation._workload_columns
    draws = []

    def failing_columns(self, workload):
        file_origins, sizes, draw = columns(self, workload)

        def failing(count):
            draws.append(threading.current_thread().name)
            if len(draws) == 3:
                raise RuntimeError("third slab's draw failed")
            return draw(count)

        return file_origins, sizes, failing

    route_batch = FastSimulation._route_batch
    patched = []

    def watching(self, *args, flat_coded=None, **kwargs):
        patched.append(not np.array_equal(flat_coded, pristine.reshape(-1)))
        return route_batch(self, *args, flat_coded=flat_coded, **kwargs)

    monkeypatch.setattr(FastSimulation, "_workload_columns",
                        failing_columns)
    monkeypatch.setattr(FastSimulation, "_route_batch", watching)
    with pytest.raises(RuntimeError, match="third slab's draw failed"):
        simulation.run()
    # Slabs 0 and 1 routed under a patched matrix. Slab 0 was drawn
    # before any routed, the others on the helper, which is shut down.
    assert patched == [True, True]
    assert draws[0] == threading.current_thread().name
    assert [name.startswith("repro-draw") for name in draws[1:]] == [
        True, True]
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("repro-draw")]
    working = simulation.table.coded_transposed
    assert working.tobytes() == pristine.tobytes()
