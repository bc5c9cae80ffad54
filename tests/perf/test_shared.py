"""Shared-memory table publication: attach equivalence + refcounting."""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.backends.fast import NextHopTable, clear_caches
from repro.errors import ConfigurationError
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.perf.shared import (
    SEGMENT_PREFIX,
    SharedTableHandle,
    SharedTableRegistry,
    attach_table,
    sweep_stale_segments,
)

CONFIG = OverlayConfig(
    n_nodes=60, bits=10, limits=BucketLimits.uniform(4), seed=5
)
OTHER = OverlayConfig(
    n_nodes=60, bits=10, limits=BucketLimits.uniform(4), seed=6
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture()
def registry():
    return SharedTableRegistry()


class TestPublishAttach:
    def test_attached_table_is_bit_identical(self, registry):
        overlay = Overlay.build(CONFIG)
        built = NextHopTable(overlay)
        handle = registry.acquire(built)
        try:
            attached = attach_table(handle, overlay)
            assert np.array_equal(
                attached.coded_transposed, built.coded_transposed
            )
            assert np.array_equal(attached.storer, built.storer)
            assert attached.sentinel == built.sentinel
            assert attached.entry_dtype == built.entry_dtype
        finally:
            registry.release(handle.fingerprint)

    def test_attached_arrays_are_read_only(self, registry):
        overlay = Overlay.build(CONFIG)
        handle = registry.acquire(NextHopTable(overlay))
        try:
            attached = attach_table(handle, overlay)
            with pytest.raises(ValueError):
                attached.coded_transposed[0, 0] = 1
            with pytest.raises(ValueError):
                attached.storer[0] = 1
        finally:
            registry.release(handle.fingerprint)

    def test_attach_refuses_mismatched_overlay(self, registry):
        overlay = Overlay.build(CONFIG)
        other = Overlay.build(OTHER)
        handle = registry.acquire(NextHopTable(overlay))
        try:
            with pytest.raises(ConfigurationError, match="does not match"):
                attach_table(handle, other)
        finally:
            registry.release(handle.fingerprint)

    def test_handle_payload_round_trip(self, registry):
        overlay = Overlay.build(CONFIG)
        handle = registry.acquire(NextHopTable(overlay))
        try:
            clone = SharedTableHandle.from_payload(handle.to_payload())
            assert clone == handle
            attached = attach_table(clone, overlay)
            assert attached.n_nodes == len(overlay)
        finally:
            registry.release(handle.fingerprint)


def _rss_shmem_kib() -> int | None:
    """This process's resident shared-memory pages, in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TestPublicationWrite:
    @pytest.mark.skipif(_rss_shmem_kib() is None,
                        reason="no RssShmem in /proc/self/status")
    def test_publisher_maps_none_of_a_table_it_publishes(self, registry):
        # 65,536 targets x 300 nodes x 2 bytes: a 37.5 MiB coded matrix.
        overlay = Overlay.build(OverlayConfig(
            n_nodes=300, bits=16, limits=BucketLimits.uniform(4), seed=5
        ))
        table = NextHopTable(overlay)
        before = _rss_shmem_kib()
        handle = registry.acquire(table)
        try:
            grown = _rss_shmem_kib() - before
            assert grown < 4 * 1024, f"RssShmem grew by {grown} KiB"
            attached = attach_table(handle, overlay)
            assert (attached.coded_transposed.tobytes()
                    == table.coded_transposed.tobytes())
            assert attached.storer.tobytes() == table.storer.tobytes()
        finally:
            registry.release(handle.fingerprint)


def references(registry: SharedTableRegistry, fingerprint: str) -> int:
    """The registry's reference count for a published topology (0 if none)."""
    entry = registry._entries.get(fingerprint)
    return 0 if entry is None else int(entry["references"])


class TestRefcounting:
    def test_acquire_is_idempotent_per_topology(self, registry):
        overlay = Overlay.build(CONFIG)
        table = NextHopTable(overlay)
        first = registry.acquire(table)
        second = registry.acquire(table)
        assert first == second
        assert references(registry, first.fingerprint) == 2
        assert len(registry) == 1
        registry.release(first.fingerprint)
        # Still published: one holder left.
        assert references(registry, first.fingerprint) == 1
        attach_table(first, overlay)
        registry.release(first.fingerprint)
        assert references(registry, first.fingerprint) == 0
        assert len(registry) == 0

    def test_last_release_unlinks_segments(self, registry):
        overlay = Overlay.build(CONFIG)
        handle = registry.acquire(NextHopTable(overlay))
        registry.release(handle.fingerprint)
        with pytest.raises(FileNotFoundError):
            attach_table(handle, overlay)

    def test_release_of_unknown_fingerprint_is_noop(self, registry):
        registry.release("not-a-fingerprint")  # must not raise

    def test_distinct_topologies_get_distinct_entries(self, registry):
        handle_a = registry.acquire(NextHopTable(Overlay.build(CONFIG)))
        handle_b = registry.acquire(NextHopTable(Overlay.build(OTHER)))
        try:
            assert handle_a.fingerprint != handle_b.fingerprint
            assert len(registry) == 2
        finally:
            registry.release(handle_a.fingerprint)
            registry.release(handle_b.fingerprint)


class TestStaleSegmentSweep:
    def test_segments_carry_the_publisher_pid(self, registry):
        handle = registry.acquire(NextHopTable(Overlay.build(CONFIG)))
        try:
            prefix = f"{SEGMENT_PREFIX}_{os.getpid()}_"
            assert handle.coded.name.startswith(prefix)
            assert handle.storer.name.startswith(prefix)
        finally:
            registry.release(handle.fingerprint)

    def test_dead_pid_segment_is_reclaimed(self):
        # Fabricate a segment attributed to a pid that cannot exist:
        # re-using a dead child's pid models a SIGKILLed publisher.
        child = os.fork()
        if child == 0:
            os._exit(0)  # pragma: no cover - child exits immediately
        os.waitpid(child, 0)
        name = f"{SEGMENT_PREFIX}_{child}_deadbeef"
        segment = shared_memory.SharedMemory(
            create=True, size=64, name=name
        )
        segment.close()
        try:
            with pytest.warns(RuntimeWarning, match="stale"):
                removed = sweep_stale_segments()
            assert name in removed
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass

    def test_live_publisher_segments_survive(self, registry):
        # Our own (live) pid owns these; the sweep must not touch them.
        handle = registry.acquire(NextHopTable(Overlay.build(CONFIG)))
        try:
            removed = sweep_stale_segments()
            assert handle.coded.name not in removed
            assert handle.storer.name not in removed
            attach_table(handle, Overlay.build(CONFIG))  # still there
        finally:
            registry.release(handle.fingerprint)

    def test_foreign_names_are_ignored(self):
        segment = shared_memory.SharedMemory(
            create=True, size=64, name="notrepro_123_aa"
        )
        try:
            removed = sweep_stale_segments()
            assert "notrepro_123_aa" not in removed
        finally:
            segment.close()
            segment.unlink()
