"""Unit tests for chunk stores and placement (repro.swarm.storage)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.swarm.storage import (
    ChunkStore,
    ClosestNodePlacement,
    NeighborhoodPlacement,
)


class TestChunkStore:
    def test_put_get(self):
        store = ChunkStore(owner=1)
        assert 10 not in store
        assert store.put(10, b"abc")
        assert 10 in store
        assert store.get(10) == b"abc"

    def test_capacity_enforced(self):
        store = ChunkStore(owner=1, capacity=2)
        assert store.put(1)
        assert store.put(2)
        assert store.is_full
        assert not store.put(3)

    def test_reput_existing_succeeds_when_full(self):
        store = ChunkStore(owner=1, capacity=1)
        store.put(1, b"a")
        assert store.put(1, b"b")
        assert store.get(1) == b"b"

    def test_get_absent_raises(self):
        with pytest.raises(KeyError):
            ChunkStore(owner=1).get(9)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ChunkStore(owner=1, capacity=0)

    def test_addresses_lists_pinned(self):
        store = ChunkStore(owner=1)
        store.put(5)
        store.put(9)
        assert sorted(store.addresses()) == [5, 9]


class TestClosestNodePlacement:
    def test_single_storer_is_closest(self, small_overlay):
        placement = ClosestNodePlacement()
        for target in range(0, small_overlay.space.size, 11):
            storers = placement.storers(target, small_overlay)
            assert storers == [small_overlay.closest_node(target)]


class TestNeighborhoodPlacement:
    def test_replica_count_and_order(self, small_overlay):
        placement = NeighborhoodPlacement(replicas=3)
        target = 123
        storers = placement.storers(target, small_overlay)
        assert len(storers) == 3
        distances = [s ^ target for s in storers]
        assert distances == sorted(distances)
        assert storers[0] == small_overlay.closest_node(target)

    def test_bad_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            NeighborhoodPlacement(replicas=0)
