"""Table provenance must never change simulation results.

Runs every registry backend three ways — freshly built table,
in-process cached table, shared-memory-attached table — and asserts
bit-identical :class:`SimulationResult` vectors, plus that the
attached path still reproduces the committed golden fixture. A table
is pure topology data; where its bytes live (fresh allocation, memo,
or another process's shared segment) must be unobservable.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import available_backends, run_simulation
from repro.backends.fast import NextHopTable, cached_overlay, clear_caches
from repro.perf.shared import shared_table_registry
from repro.perf.table_cache import global_table_cache
from tests.backends.test_golden import (
    GOLDEN_CONFIG,
    GOLDEN_DIR,
    golden_payload,
)

ALL_BACKENDS = tuple(available_backends())

#: Backends that resolve a NextHopTable during prepare().
TABLE_BACKENDS = ("fast", "flat", "filecoin", "time")


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


def run_fresh(backend: str):
    clear_caches()
    return run_simulation(GOLDEN_CONFIG, backend=backend)


def run_cached(backend: str):
    clear_caches()
    run_simulation(GOLDEN_CONFIG, backend=backend)
    return run_simulation(GOLDEN_CONFIG, backend=backend)


def run_attached(backend: str):
    clear_caches()
    overlay = cached_overlay(GOLDEN_CONFIG.overlay_config())
    table = NextHopTable(overlay)
    registry = shared_table_registry()
    handle = registry.acquire(table)
    try:
        cache = global_table_cache()
        cache.clear()
        cache.register_handle(handle)
        result = run_simulation(GOLDEN_CONFIG, backend=backend)
        if backend in TABLE_BACKENDS:
            assert cache.stats.attaches == 1, (
                f"{backend} should have attached the published table"
            )
            assert cache.stats.builds == 0, (
                f"{backend} rebuilt a table despite the published handle"
            )
        return result
    finally:
        registry.release(handle.fingerprint)
        clear_caches()


def assert_identical(a, b, context: str) -> None:
    assert np.array_equal(a.forwarded, b.forwarded), context
    assert np.array_equal(a.first_hop, b.first_hop), context
    assert np.array_equal(a.income, b.income), context
    assert np.array_equal(a.expenditure, b.expenditure), context
    assert np.array_equal(a.node_addresses, b.node_addresses), context
    assert a.files == b.files, context
    assert a.chunks == b.chunks, context
    assert a.total_hops == b.total_hops, context
    assert a.local_hits == b.local_hits, context
    assert a.fallbacks == b.fallbacks, context
    assert a.cache_hits == b.cache_hits, context
    assert a.unavailable == b.unavailable, context
    assert a.hop_histogram == b.hop_histogram, context


def test_registry_is_the_expected_six():
    assert ALL_BACKENDS == (
        "fast", "filecoin", "flat", "reference", "time", "tit_for_tat",
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fresh_cached_attached_identical(backend: str):
    fresh = run_fresh(backend)
    cached = run_cached(backend)
    attached = run_attached(backend)
    assert_identical(fresh, cached, f"{backend}: fresh vs cached")
    assert_identical(fresh, attached, f"{backend}: fresh vs attached")


@pytest.mark.parametrize("backend", ("fast", "reference"))
def test_attached_tables_reproduce_golden_fixtures(backend: str):
    """The shm path pins the *same* semantics the goldens froze."""
    payload = golden_payload(run_attached(backend))
    golden = json.loads((GOLDEN_DIR / f"{backend}.json").read_text())
    assert payload["counters"] == golden["counters"]
    assert payload["forwarded"] == golden["forwarded"]
    assert payload["first_hop"] == golden["first_hop"]
    assert payload["hop_histogram"] == golden["hop_histogram"]
    np.testing.assert_allclose(
        payload["income"], golden["income"], rtol=1e-9, atol=1e-12
    )
