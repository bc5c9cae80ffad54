"""Unit tests for the retrieval protocol (repro.swarm.retrieval)."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError
from repro.kademlia.routing import Router
from repro.swarm.caching import LRUCache
from repro.swarm.node import SwarmNode
from repro.swarm.retrieval import RetrievalProtocol


def build_nodes(overlay, cache_capacity=None):
    return {
        address: SwarmNode(
            address,
            overlay.table(address),
            cache=LRUCache(cache_capacity) if cache_capacity else None,
        )
        for address in overlay.addresses
    }


class TestBasicRetrieval:
    def test_implicit_storage_reaches_storer(self, medium_overlay, rng):
        nodes = build_nodes(medium_overlay)
        protocol = RetrievalProtocol(
            medium_overlay, nodes, implicit_storage=True
        )
        for _ in range(100):
            originator = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            retrieval = protocol.retrieve(originator, target)
            assert retrieval.route.storer == medium_overlay.closest_node(target)

    def test_matches_router_paths_without_caches(self, medium_overlay, rng):
        nodes = build_nodes(medium_overlay)
        protocol = RetrievalProtocol(
            medium_overlay, nodes, implicit_storage=True
        )
        router = Router(medium_overlay)
        for _ in range(100):
            originator = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            assert (
                protocol.retrieve(originator, target).route.path
                == router.route(originator, target).path
            )

    def test_local_hit_when_originator_stores(self, medium_overlay):
        nodes = build_nodes(medium_overlay)
        originator = medium_overlay.addresses[0]
        nodes[originator].store.put(42)
        protocol = RetrievalProtocol(medium_overlay, nodes)
        retrieval = protocol.retrieve(originator, 42)
        assert retrieval.source == "local"
        assert retrieval.route.hops == 0

    def test_miss_without_upload_raises(self, medium_overlay):
        nodes = build_nodes(medium_overlay)
        protocol = RetrievalProtocol(medium_overlay, nodes)
        originator = medium_overlay.addresses[0]
        target = (originator + 1) % medium_overlay.space.size
        with pytest.raises(RoutingError, match="uploaded"):
            protocol.retrieve(originator, target)

    def test_explicit_storage_serves_store(self, medium_overlay):
        nodes = build_nodes(medium_overlay)
        target = 777
        storer = medium_overlay.closest_node(target)
        nodes[storer].store.put(target)
        protocol = RetrievalProtocol(medium_overlay, nodes)
        originator = next(
            a for a in medium_overlay.addresses if a != storer
        )
        retrieval = protocol.retrieve(originator, target)
        assert retrieval.source == "store"
        assert retrieval.route.storer == storer

    def test_unknown_originator_raises(self, medium_overlay):
        nodes = build_nodes(medium_overlay)
        protocol = RetrievalProtocol(medium_overlay, nodes)
        missing = next(
            a for a in range(medium_overlay.space.size)
            if a not in medium_overlay
        )
        with pytest.raises(RoutingError):
            protocol.retrieve(missing, 0)


class TestCaching:
    def test_forwarders_admit_on_path(self, medium_overlay, rng):
        nodes = build_nodes(medium_overlay, cache_capacity=32)
        protocol = RetrievalProtocol(
            medium_overlay, nodes, implicit_storage=True, cache_on_path=True
        )
        # Find a retrieval with at least one intermediate hop.
        for _ in range(200):
            originator = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            retrieval = protocol.retrieve(originator, target)
            if retrieval.route.hops >= 2:
                middle = retrieval.route.path[1:-1]
                for node in middle:
                    assert target in nodes[node].cache
                break
        else:
            pytest.fail("no multi-hop retrieval found")

    def test_cache_hit_truncates_path(self, medium_overlay, rng):
        nodes = build_nodes(medium_overlay, cache_capacity=32)
        protocol = RetrievalProtocol(
            medium_overlay, nodes, implicit_storage=True, cache_on_path=True
        )
        for _ in range(300):
            originator = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            first = protocol.retrieve(originator, target)
            if first.route.hops >= 2:
                # A second retrieval from the same originator must stop
                # at the now-cached first hop.
                second = protocol.retrieve(originator, target)
                assert second.route.hops <= first.route.hops
                if second.source == "cache":
                    assert second.route.hops < first.route.hops
                    break
        else:
            pytest.fail("no cache-truncated retrieval observed")

    def test_stats_track_savings(self, medium_overlay, rng):
        nodes = build_nodes(medium_overlay, cache_capacity=64)
        protocol = RetrievalProtocol(
            medium_overlay, nodes, implicit_storage=True, cache_on_path=True
        )
        targets = [int(t) for t in rng.integers(
            0, medium_overlay.space.size, size=20
        )]
        originators = [
            int(o) for o in rng.choice(medium_overlay.address_array(), 10)
        ]
        for originator in originators:
            for target in targets:
                protocol.retrieve(originator, target)
        stats = protocol.stats
        assert stats.retrievals == 200
        assert stats.cache_hits + stats.store_hits + stats.local_hits == 200
        if stats.cache_hits:
            assert stats.hops_saved_by_cache > 0
