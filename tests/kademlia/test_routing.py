"""Unit tests for forwarding-Kademlia routing (repro.kademlia.routing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.routing import Route, Router, RoutingStats


class TestRoute:
    def test_properties(self):
        route = Route(target=9, path=(1, 2, 3))
        assert route.originator == 1
        assert route.storer == 3
        assert route.hops == 2
        assert route.first_hop == 2

    def test_local_hit(self):
        route = Route(target=9, path=(1,))
        assert route.hops == 0
        assert route.first_hop is None


class TestRouterCorrectness:
    def test_routes_reach_the_storer(self, medium_overlay, rng):
        router = Router(medium_overlay, strict=True)
        for _ in range(300):
            origin = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            route = router.route(origin, target)
            assert route.storer == medium_overlay.closest_node(target)

    def test_paths_make_strict_xor_progress(self, medium_overlay, rng):
        router = Router(medium_overlay)
        for _ in range(100):
            origin = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            route = router.route(origin, target)
            distances = [node ^ target for node in route.path]
            assert distances == sorted(distances, reverse=True)
            assert len(set(route.path)) == len(route.path)

    def test_hops_bounded_by_bits(self, medium_overlay, rng):
        router = Router(medium_overlay)
        for _ in range(100):
            origin = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            assert router.route(origin, target).hops <= medium_overlay.space.bits

    def test_wide_buckets_give_shorter_routes(self, medium_overlay,
                                              wide_overlay, rng):
        # k=20 should dominate k=4 on mean hops (the paper's Table I
        # bandwidth effect).
        narrow = Router(medium_overlay)
        wide = Router(wide_overlay)
        for _ in range(400):
            target = int(rng.integers(0, medium_overlay.space.size))
            origin_narrow = int(rng.choice(medium_overlay.address_array()))
            origin_wide = int(rng.choice(wide_overlay.address_array()))
            narrow.route(origin_narrow, target)
            wide.route(origin_wide, target)
        assert wide.stats.mean_hops < narrow.stats.mean_hops

    def test_route_to_own_address_is_local(self, medium_overlay):
        origin = medium_overlay.addresses[0]
        route = Router(medium_overlay).route(origin, origin)
        assert route.hops == 0
        assert route.path == (origin,)

    def test_stats_record_every_route(self, medium_overlay):
        origin = medium_overlay.addresses[0]
        router = Router(medium_overlay)
        routes = [router.route(origin, target)
                  for target in (1, 2, 3, origin)]
        assert all(route.originator == origin for route in routes)
        assert router.stats.routes == 4
        assert router.stats.total_hops == sum(r.hops for r in routes)
        assert router.stats.local_hits == sum(r.hops == 0 for r in routes)

    def test_unknown_origin_raises(self, medium_overlay):
        missing = next(
            a for a in range(medium_overlay.space.size)
            if a not in medium_overlay
        )
        with pytest.raises(RoutingError, match="not an overlay node"):
            Router(medium_overlay).route(missing, 0)

    def test_exhaustive_small_overlay(self, small_overlay):
        router = Router(small_overlay, strict=True)
        for origin in small_overlay.addresses:
            for target in range(small_overlay.space.size):
                route = router.route(origin, target)
                assert route.storer == small_overlay.closest_node(target)

class TestEditedTables:
    """The router reads the overlay's (mutable) routing-table objects."""

    def test_evicted_node_is_never_an_intermediate_hop(self):
        overlay = Overlay.build(OverlayConfig(n_nodes=60, bits=10, seed=2))
        victim = overlay.addresses[0]
        holders = 0
        for owner in overlay.addresses:
            table = overlay.table(owner)
            if owner != victim and victim in table:
                table.remove(victim)
                holders += 1
        assert holders > 0
        router = Router(overlay)
        live = [a for a in overlay.addresses if a != victim]
        for origin in live[:10]:
            for target in live[:10]:
                route = router.route(origin, target)
                assert victim not in route.path[1:-1]


class TestFallback:
    def test_no_fallback_on_paper_style_overlays(self, medium_overlay, rng):
        router = Router(medium_overlay)
        for _ in range(500):
            origin = int(rng.choice(medium_overlay.address_array()))
            target = int(rng.integers(0, medium_overlay.space.size))
            router.route(origin, target)
        assert router.stats.fallback_hops == 0

    def test_asymmetric_overlay_may_stall_strictly(self):
        # Without the symmetric neighborhood, strict routing must
        # either succeed or raise - never silently misroute.
        overlay = Overlay.build(
            OverlayConfig(n_nodes=100, bits=12, seed=5,
                          symmetric_neighborhood=False)
        )
        router = Router(overlay, strict=True)
        rng = np.random.default_rng(0)
        for _ in range(300):
            origin = int(rng.choice(overlay.address_array()))
            target = int(rng.integers(0, overlay.space.size))
            try:
                route = router.route(origin, target)
            except RoutingError:
                continue
            assert route.storer == overlay.closest_node(target)

    def test_fallback_reaches_storer_non_strict(self):
        overlay = Overlay.build(
            OverlayConfig(n_nodes=100, bits=12, seed=5,
                          symmetric_neighborhood=False)
        )
        router = Router(overlay)
        rng = np.random.default_rng(0)
        for _ in range(300):
            origin = int(rng.choice(overlay.address_array()))
            target = int(rng.integers(0, overlay.space.size))
            route = router.route(origin, target)
            assert route.storer == overlay.closest_node(target)


class TestRoutingStats:
    def test_record_accumulates(self):
        stats = RoutingStats()
        stats.record(Route(target=1, path=(1, 2, 3)))
        stats.record(Route(target=2, path=(5,)))
        stats.record(Route(target=3, path=(1, 9), fallback=True))
        assert stats.routes == 3
        assert stats.total_hops == 3
        assert stats.local_hits == 1
        assert stats.fallback_hops == 1
        assert stats.hop_histogram == {2: 1, 0: 1, 1: 1}
        assert stats.mean_hops == 1.0

    def test_empty_mean_is_zero(self):
        assert RoutingStats().mean_hops == 0.0

    def test_merge(self):
        a = RoutingStats()
        a.record(Route(target=1, path=(1, 2)))
        b = RoutingStats()
        b.record(Route(target=2, path=(1, 2, 3)))
        b.record(Route(target=3, path=(4,)))
        merged = a.merge(b)
        assert merged.routes == 3
        assert merged.total_hops == 3
        assert merged.hop_histogram == {1: 1, 2: 1, 0: 1}
        # Inputs untouched.
        assert a.routes == 1 and b.routes == 2
