"""Trace replay: identical requests, different configurations.

The cleanest way to compare configurations is to hold the workload
*fixed*: freeze one request sequence into a trace, then replay it
against overlays that differ only in bucket size. Any difference in
the outcome is then attributable to the topology, not workload noise.

This example freezes a 300-file trace and replays it across
k ∈ {2, 4, 8, 20}, printing the per-configuration fairness and
bandwidth — the paper's comparison, workload-controlled.

Run with::

    python examples/trace_replay_study.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import Table
from repro.experiments import FastSimulation, FastSimulationConfig
from repro.workloads import (
    DownloadWorkload,
    OriginatorPool,
    TraceWorkload,
    UniformFileSize,
    WorkloadTrace,
)

N_NODES = 250
N_FILES = 300
BUCKET_SIZES = (2, 4, 8, 20)


def main() -> None:
    # Build the reference overlay once to materialize the trace
    # against its node population.
    base_config = FastSimulationConfig(
        n_nodes=N_NODES, bucket_size=4, n_files=N_FILES, overlay_seed=42,
    )
    base = FastSimulation(base_config)
    workload = DownloadWorkload(
        n_files=N_FILES,
        originators=OriginatorPool(share=0.2),
        file_size=UniformFileSize(100, 500),
        seed=17,
    )
    events = workload.materialize(
        base.overlay.address_array(), base.space
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        # Provenance in the header lets any later replay verify it
        # runs on the overlay the trace was captured for.
        WorkloadTrace(
            events, bits=base_config.bits, n_nodes=N_NODES,
            overlay_seed=base_config.overlay_seed,
        ).save(path)
        trace = WorkloadTrace.load(path)
        print(f"frozen trace: {trace.summary()}\n")

        table = Table(
            title="one trace, four topologies",
            headers=["k", "mean forwarded", "mean hops", "F2 Gini",
                     "F1 Gini"],
        )
        for bucket_size in BUCKET_SIZES:
            config = FastSimulationConfig(
                n_nodes=N_NODES, bucket_size=bucket_size,
                n_files=N_FILES, overlay_seed=42,
            )
            result = FastSimulation(config).run(TraceWorkload(trace))
            table.add_row(
                bucket_size,
                round(result.average_forwarded_chunks()),
                round(result.mean_hops, 2),
                result.f2_gini(),
                result.f1_gini(),
            )
        print(table.to_text())
        print()
        print(
            "Reading: with the workload held exactly fixed, every "
            "fairness and bandwidth improvement is attributable to "
            "the larger routing tables alone."
        )


if __name__ == "__main__":
    main()
