"""Table lifecycle benchmark: cold build vs shared-memory attach.

Quantifies what the :mod:`repro.perf` cache saves per sweep worker:
a cold :class:`NextHopTable` build is seconds of XOR scans over the
whole address space, while attaching the published table is a few
shared-memory mappings. The assertion is deliberately loose (100x) —
the real attach win is 3–4 orders of magnitude, but shared CI runners
are noisy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.fast import NextHopTable, cached_overlay
from repro.backends.config import FastSimulationConfig
from repro.perf.shared import attach_table, shared_table_registry


def test_cold_build_vs_cache_attach(bench_scale):
    config = FastSimulationConfig(
        n_files=bench_scale["n_files"], n_nodes=bench_scale["n_nodes"],
    )
    overlay = cached_overlay(config.overlay_config())

    started = time.perf_counter()
    table = NextHopTable(overlay)
    _ = table.flat_coded
    build_s = time.perf_counter() - started

    registry = shared_table_registry()
    started = time.perf_counter()
    handle = registry.acquire(table)
    publish_s = time.perf_counter() - started
    try:
        started = time.perf_counter()
        attached = attach_table(handle, overlay)
        attach_s = time.perf_counter() - started
        assert np.array_equal(attached.coded_transposed,
                              table.coded_transposed)
        assert np.array_equal(attached.storer, table.storer)
    finally:
        registry.release(handle.fingerprint)

    coded = table.coded_transposed
    table_mb = coded.nbytes / 1e6
    print()
    print(
        f"coded next-hop table {coded.shape} {coded.dtype} "
        f"({table_mb:.0f} MB): cold build {build_s:.3f}s, publish "
        f"{publish_s:.3f}s, attach {attach_s * 1e3:.2f}ms "
        f"({build_s / max(attach_s, 1e-9):,.0f}x)"
    )
    assert attach_s * 100 < build_s, (
        "attaching a published table must beat rebuilding it by far"
    )
