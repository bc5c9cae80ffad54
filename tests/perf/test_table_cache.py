"""Unit tests for the content-addressed table cache and fingerprints."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.backends.fast import (
    NextHopTable,
    TABLE_BUILD_LOG_ENV,
    cached_next_hop_table,
    cached_overlay,
    clear_caches,
)
from repro.errors import ConfigurationError
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.perf.table_cache import TableCache, global_table_cache

CONFIG = OverlayConfig(
    n_nodes=60, bits=10, limits=BucketLimits.uniform(4), seed=5
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


class TestFingerprint:
    def test_deterministic_across_builds(self):
        a = Overlay.build(CONFIG)
        b = Overlay.build(CONFIG)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_every_topology_parameter(self):
        base = Overlay.build(CONFIG).fingerprint()
        for change in (
            {"n_nodes": 61},
            {"bits": 11},
            {"limits": BucketLimits.uniform(8)},
            {"limits": BucketLimits(default=4, overrides={0: 20})},
            {"seed": 6},
            {"neighborhood_min": 2},
            {"symmetric_neighborhood": False},
        ):
            changed = OverlayConfig(**{
                "n_nodes": CONFIG.n_nodes,
                "bits": CONFIG.bits,
                "limits": CONFIG.limits,
                "seed": CONFIG.seed,
                "neighborhood_min": CONFIG.neighborhood_min,
                "symmetric_neighborhood": CONFIG.symmetric_neighborhood,
                **change,
            })
            assert Overlay.build(changed).fingerprint() != base, change

    def test_covers_table_contents_not_just_config(self):
        built = Overlay.build(CONFIG)
        # A hand-crafted overlay claiming the same config must not
        # collide with the genuinely built topology.
        tables = {
            address: built.table(address) for address in built.addresses
        }
        victim = sorted(tables)[0]
        stripped = {k: v for k, v in tables.items()}
        rebuilt = Overlay(CONFIG, built.addresses, stripped)
        assert rebuilt.fingerprint() == built.fingerprint()
        # Remove one edge: fingerprint must move.
        peers = tables[victim].peers()
        from repro.kademlia.table import RoutingTable

        replacement = RoutingTable(victim, built.space, CONFIG.limits)
        for peer in peers[:-1]:
            replacement.add_unbounded(int(peer))
        stripped[victim] = replacement
        modified = Overlay(CONFIG, built.addresses, stripped)
        assert modified.fingerprint() != built.fingerprint()

    def test_cached_on_instance(self):
        overlay = Overlay.build(CONFIG)
        assert overlay.fingerprint() is overlay.fingerprint()


class TestTableCache:
    def test_build_then_hit(self):
        cache = TableCache()
        overlay = Overlay.build(CONFIG)
        first = cache.get(overlay)
        second = cache.get(overlay)
        assert first is second
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1
        assert cache.stats.attaches == 0

    def test_equal_topologies_share_one_table(self):
        cache = TableCache()
        first = cache.get(Overlay.build(CONFIG))
        second = cache.get(Overlay.build(CONFIG))
        assert first is second
        assert cache.stats.builds == 1

    def test_install(self):
        cache = TableCache()
        overlay = Overlay.build(CONFIG)
        table = NextHopTable(overlay)
        cache.install(overlay.fingerprint(), table)
        assert cache.get(overlay) is table
        assert cache.stats.builds == 0

    def test_clear_resets_stats(self):
        cache = TableCache()
        cache.get(Overlay.build(CONFIG))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.snapshot() == {
            "builds": 0, "attaches": 0, "hits": 0,
        }

    def test_cached_next_hop_table_goes_through_global_cache(self):
        overlay = cached_overlay(CONFIG)
        table = cached_next_hop_table(overlay)
        assert cached_next_hop_table(overlay) is table
        assert global_table_cache().stats.builds == 1


class TestBuildLog:
    def test_cold_build_appends_fingerprint_and_pid(self, tmp_path,
                                                    monkeypatch):
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        overlay = Overlay.build(CONFIG)
        NextHopTable(overlay)
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        fingerprint, pid = lines[0].split()
        assert fingerprint == overlay.fingerprint()
        assert int(pid) == os.getpid()

    def test_cache_hit_does_not_log(self, tmp_path, monkeypatch):
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        overlay = cached_overlay(CONFIG)
        cached_next_hop_table(overlay)
        cached_next_hop_table(overlay)
        assert len(log.read_text().splitlines()) == 1

    def test_silent_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TABLE_BUILD_LOG_ENV, raising=False)
        NextHopTable(Overlay.build(CONFIG))  # must not raise or write


class TestFromArrays:
    def test_round_trips_built_arrays(self):
        overlay = Overlay.build(CONFIG)
        built = NextHopTable(overlay)
        wrapped = NextHopTable.from_arrays(
            overlay,
            coded=np.ascontiguousarray(built.coded_transposed),
            storer=built.storer.copy(),
        )
        assert np.array_equal(wrapped.coded_transposed,
                              built.coded_transposed)
        assert np.array_equal(wrapped.storer, built.storer)
        assert wrapped.sentinel == built.sentinel
        assert wrapped.n_nodes == built.n_nodes

    def test_rejects_wrong_dtype(self):
        overlay = Overlay.build(CONFIG)
        built = NextHopTable(overlay)
        with pytest.raises(ConfigurationError, match="dtype|must use"):
            NextHopTable.from_arrays(
                overlay,
                coded=built.coded_transposed.astype(np.int64),
                storer=built.storer.copy(),
            )

    def test_rejects_wrong_shape(self):
        overlay = Overlay.build(CONFIG)
        built = NextHopTable(overlay)
        with pytest.raises(ConfigurationError, match="shape"):
            NextHopTable.from_arrays(
                overlay,
                coded=np.ascontiguousarray(built.coded_transposed[:-1]),
                storer=built.storer.copy(),
            )


class TestEpochTableCache:
    def test_miss_then_hit_with_event_kinds(self, tmp_path, monkeypatch):
        from repro.perf.table_cache import (
            EPOCH_TABLE_LOG_ENV,
            EpochTableCache,
        )

        log = tmp_path / "epochs.log"
        monkeypatch.setenv(EPOCH_TABLE_LOG_ENV, str(log))
        cache = EpochTableCache()
        table = np.arange(8, dtype=np.uint16)
        built = cache.get("fp-1", lambda: table, patched=True)
        assert built is table
        assert cache.get("fp-1", lambda: 1 / 0) is table
        cache.get("fp-2", lambda: table.copy(), patched=False)
        assert cache.stats.snapshot() == {
            "patches": 1, "rebuilds": 1, "hits": 1,
        }
        assert cache.stats.resolutions == 3
        events = [line.split()[2] for line in log.read_text().splitlines()]
        assert events == ["patch", "hit", "rebuild"]
        assert "fp-1" in cache and len(cache) == 2

    def test_clear_resets_tables_and_stats(self):
        from repro.perf.table_cache import EpochTableCache

        cache = EpochTableCache()
        cache.get("fp", lambda: np.zeros(4, dtype=np.uint16))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.resolutions == 0

    def test_clear_caches_covers_every_perf_cache(self):
        """The backends-level clear_caches drops all three caches."""
        from repro.backends import run_simulation
        from repro.backends.config import FastSimulationConfig
        from repro.perf.table_cache import (
            global_epoch_table_cache,
            global_table_cache,
        )

        run_simulation(FastSimulationConfig(
            n_nodes=60, bits=10, n_files=16, batch_files=4,
            scenario="churn:rate=0.2,recompute=true",
        ))
        assert len(global_table_cache()) > 0
        assert len(global_epoch_table_cache()) > 0
        clear_caches()
        assert len(global_table_cache()) == 0
        assert len(global_epoch_table_cache()) == 0
        assert global_epoch_table_cache().stats.resolutions == 0

    def test_default_bound_is_a_bytes_budget(self):
        from repro.perf.table_cache import EpochTableCache

        cache = EpochTableCache()
        assert cache.max_bytes == EpochTableCache.DEFAULT_MAX_BYTES
        # The budget holds 256 tables at the paper's 16-bit / uint16
        # shape...
        table_bytes = (1 << 16) * 2
        assert cache.max_bytes // table_bytes == 256
        # ...so wider spaces keep the same resident memory by holding
        # proportionally fewer tables, instead of 64x the bytes.
        wide_table_bytes = (1 << 22) * 2
        assert cache.max_bytes // wide_table_bytes < 8

    def test_bytes_budget_evicts_lru_and_tracks_nbytes(self):
        from repro.perf.table_cache import EpochTableCache

        table = lambda fill: np.full(16, fill, np.uint16)  # noqa: E731
        cache = EpochTableCache(max_bytes=3 * 32)
        for name in "abc":
            cache.get(name, lambda: table(1))
        assert len(cache) == 3 and cache.nbytes == 96
        cache.get("a", lambda: 1 / 0)  # refresh recency
        cache.get("d", lambda: table(2))
        assert "b" not in cache  # least recently used
        assert len(cache) == 3 and cache.nbytes == 96
        with pytest.raises(ValueError):
            EpochTableCache(max_bytes=0)

    def test_oversized_table_still_cached(self):
        # A single table above the budget must not evict itself: the
        # live plan needs it, and an empty cache helps nobody.
        from repro.perf.table_cache import EpochTableCache

        cache = EpochTableCache(max_bytes=8)
        big = np.zeros(64, dtype=np.uint16)
        assert cache.get("big", lambda: big) is big
        assert "big" in cache and len(cache) == 1

    def test_seed_replicas_resolve_every_epoch_table_from_cache(self):
        # What each extra sweep seed does: replay the same scenario
        # schedule under another workload seed.
        import dataclasses

        from repro.backends import run_simulation
        from repro.backends.config import FastSimulationConfig
        from repro.perf.table_cache import global_epoch_table_cache

        base = FastSimulationConfig(
            n_nodes=300, n_files=400, batch_files=64, catalog_size=200,
            originator_share=0.5,
            scenario="churn:rate=0.1,recompute=true+caching:size=256",
        )
        stats = global_epoch_table_cache().stats
        run_simulation(base)
        cold = stats.snapshot()
        for seed in (8, 9):
            run_simulation(dataclasses.replace(base, workload_seed=seed))
        warm = stats.snapshot()
        assert cold["patches"] + cold["rebuilds"] > 0
        assert warm["patches"] == cold["patches"]
        assert warm["rebuilds"] == cold["rebuilds"]
        assert warm["hits"] > cold["hits"]
