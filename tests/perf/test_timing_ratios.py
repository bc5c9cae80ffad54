"""In-process timing ratios: each cheap path against the one it replaces.

Each test times two ways to the same answer in one process, checks
that the answers agree, and bounds the ratio of their best-of-three
wall times. The bounds are loose on purpose: shared hosts are noisy,
and a test here is there to catch a lost mechanism (a patch that
rebuilds, a replay that regenerates, a stream that re-plumbs per
request, an attach that copies), not percent-level drift. Absolute
speed is the benchmark of record's job (``perfbench/``).
"""

from __future__ import annotations

import dataclasses
import io
import json
import time

import numpy as np

from repro.backends import run_simulation
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import (
    FastSimulation,
    NextHopTable,
    cached_overlay,
    clear_caches,
)
from repro.kademlia.table import alive_storer_table, patch_storer_table
from repro.perf.shared import attach_table, shared_table_registry
from repro.scenarios.trace import record_dynamics
from repro.serve import run_serve

N_NODES = 300
N_FILES = 400
SCENARIO = "churn:rate=0.1,recompute=true+caching:size=256"


def best_of(runs, call):
    """(best wall seconds of *runs* calls, the last call's result)."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_delta_patch_beats_rebuilding_each_epoch_table():
    overlay = cached_overlay(
        FastSimulationConfig(n_nodes=N_NODES).overlay_config()
    )
    addresses = overlay.address_array()
    size = overlay.space.size
    dtype = np.dtype(np.uint16)
    rng = np.random.default_rng(2022)
    masks = [rng.random(N_NODES) >= 0.1 for _ in range(6)]
    everyone = np.ones(N_NODES, bool)
    base = alive_storer_table(addresses, everyone, dtype, size)

    def rebuild():
        return [alive_storer_table(addresses, mask, dtype, size)
                for mask in masks]

    def patch():
        tables, table, previous_mask = [], base, everyone
        for mask in masks:
            table = patch_storer_table(
                table, addresses, mask,
                np.flatnonzero(previous_mask & ~mask),
                np.flatnonzero(~previous_mask & mask),
            )
            tables.append(table)
            previous_mask = mask
        return tables

    rebuild_s, rebuilt = best_of(3, rebuild)
    patch_s, patched = best_of(3, patch)
    for a, b in zip(patched, rebuilt):
        assert np.array_equal(a, b)
    assert patch_s < rebuild_s


def test_dynamics_replay_within_2x_of_the_direct_run(tmp_path):
    config = FastSimulationConfig(
        n_nodes=N_NODES, n_files=N_FILES, batch_files=64,
        catalog_size=200, originator_share=0.5, scenario=SCENARIO,
    )
    path = tmp_path / "dynamics.json"
    record_dynamics(config.scenario_stack(),
                    config.scenario_context()).save(path)
    replay = dataclasses.replace(config, scenario=f"trace:path={path}")

    def cold_run(run_config):
        clear_caches()
        return run_simulation(run_config)

    direct_s, direct = best_of(3, lambda: cold_run(config))
    replay_s, replayed = best_of(3, lambda: cold_run(replay))
    assert np.array_equal(direct.forwarded, replayed.forwarded)
    assert np.array_equal(direct.first_hop, replayed.first_hop)
    assert direct.hop_histogram == replayed.hop_histogram
    assert replay_s < 2.0 * direct_s


def test_streamed_serve_within_3x_of_batch():
    config = FastSimulationConfig(n_nodes=N_NODES)
    simulation = FastSimulation(config)
    addresses = simulation.overlay.address_array()
    rng = np.random.default_rng(7)
    sizes = rng.integers(2, 7, size=20_000)
    chunks = rng.integers(0, simulation.space.size, size=int(sizes.sum()))
    lines = [
        json.dumps({"originator": origin, "chunks": part.tolist()}) + "\n"
        for origin, part in zip(rng.choice(addresses, sizes.size).tolist(),
                                np.split(chunks, np.cumsum(sizes)[:-1]))
    ]

    def serve(batch_mode):
        out = io.StringIO()
        run_serve(config, lines, out, batch_mode=batch_mode)
        return out.getvalue().splitlines()[-1]

    batch_s, batch_final = best_of(3, lambda: serve(True))
    stream_s, stream_final = best_of(3, lambda: serve(False))
    assert stream_final == batch_final
    assert stream_s < 3.0 * batch_s


def test_attaching_a_published_table_beats_building_it_100x():
    overlay = cached_overlay(
        FastSimulationConfig(n_nodes=N_NODES).overlay_config()
    )
    started = time.perf_counter()
    table = NextHopTable(overlay)
    build_s = time.perf_counter() - started

    registry = shared_table_registry()
    handle = registry.acquire(table)
    try:
        started = time.perf_counter()
        attached = attach_table(handle, overlay)
        attach_s = time.perf_counter() - started
        assert np.array_equal(attached.coded_transposed,
                              table.coded_transposed)
    finally:
        registry.release(handle.fingerprint)
    assert attach_s * 100 < build_s
