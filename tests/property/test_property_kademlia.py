"""Property-based tests for the Kademlia substrate (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.address import bit_length_array, common_prefix_length
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.routing import Router

BITS = 10
addresses = st.integers(min_value=0, max_value=(1 << BITS) - 1)


class TestXorMetricProperties:
    @given(addresses, addresses)
    def test_symmetry(self, a, b):
        assert a ^ b == b ^ a

    @given(addresses, addresses, addresses)
    def test_triangle_inequality(self, a, b, c):
        assert (a ^ c) <= (a ^ b) + (b ^ c)

    @given(addresses, addresses)
    def test_identity_of_indiscernibles(self, a, b):
        assert ((a ^ b) == 0) == (a == b)

    @given(addresses, addresses)
    def test_proximity_consistent_with_distance(self, a, b):
        # Higher proximity implies smaller distance (same first
        # differing bit dominates the XOR value).
        po = common_prefix_length(a, b, BITS)
        if a != b:
            assert (a ^ b) < (1 << (BITS - po))
            assert (a ^ b) >= (1 << (BITS - po - 1))

    @given(addresses, addresses, addresses)
    def test_proximity_triangle(self, a, b, c):
        # po(a,c) >= min(po(a,b), po(b,c)) - the ultrametric property.
        po_ab = common_prefix_length(a, b, BITS)
        po_bc = common_prefix_length(b, c, BITS)
        po_ac = common_prefix_length(a, c, BITS)
        assert po_ac >= min(po_ab, po_bc)


#: Where a float64 conversion would round: every power of two and its
#: predecessor over the full uint64 range, and 2**53's neighbours.
BIT_LENGTH_BOUNDARIES = sorted(
    {2**k - 1 for k in range(65)} | {2**k for k in range(64)}
    | {2**53 - 1, 2**53 + 1}
)


class TestBitLengthProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1)
                    | st.sampled_from(BIT_LENGTH_BOUNDARIES),
                    min_size=1, max_size=50))
    def test_matches_python(self, values):
        array = np.array(values, dtype=np.uint64)
        assert bit_length_array(array).tolist() == [
            v.bit_length() for v in values
        ]

    def test_boundaries_match_python(self):
        array = np.array(BIT_LENGTH_BOUNDARIES, dtype=np.uint64)
        assert bit_length_array(array).tolist() == [
            v.bit_length() for v in BIT_LENGTH_BOUNDARIES
        ]


@st.composite
def overlay_configs(draw):
    bits = draw(st.integers(min_value=6, max_value=10))
    n_nodes = draw(st.integers(min_value=5, max_value=min(60, 1 << bits)))
    bucket_size = draw(st.sampled_from([1, 2, 4, 8]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    from repro.kademlia.buckets import BucketLimits

    return OverlayConfig(
        n_nodes=n_nodes, bits=bits,
        limits=BucketLimits.uniform(bucket_size), seed=seed,
    )


class TestRoutingProperties:
    @given(overlay_configs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_routes_always_reach_storer(self, config, traffic_seed):
        overlay = Overlay.build(config)
        router = Router(overlay)
        rng = np.random.default_rng(traffic_seed)
        for _ in range(20):
            origin = int(rng.choice(overlay.address_array()))
            target = int(rng.integers(0, overlay.space.size))
            route = router.route(origin, target)
            assert route.storer == overlay.closest_node(target)
            # Strict XOR progress along the path.
            distances = [node ^ target for node in route.path]
            assert distances == sorted(distances, reverse=True)

    @given(overlay_configs())
    @settings(max_examples=15, deadline=None)
    def test_overlay_build_is_deterministic(self, config):
        a = Overlay.build(config)
        b = Overlay.build(config)
        assert a.addresses == b.addresses
        sample = a.addresses[: min(5, len(a.addresses))]
        for owner in sample:
            assert a.table(owner).peers() == b.table(owner).peers()

    @given(overlay_configs())
    @settings(max_examples=15, deadline=None)
    def test_bucket_capacity_respected_outside_neighborhood(self, config):
        # Symmetric neighborhood edges may legitimately overfill a
        # shallow bucket of the counterparty, so the capacity
        # invariant is asserted on the asymmetric construction.
        import dataclasses

        asymmetric = dataclasses.replace(
            config, symmetric_neighborhood=False
        )
        overlay = Overlay.build(asymmetric)
        for owner in overlay.addresses[:10]:
            table = overlay.table(owner)
            depth = table.neighborhood_depth(config.neighborhood_min)
            for bucket in table.buckets:
                if bucket.index < depth:
                    capacity = config.limits.capacity(bucket.index)
                    assert len(bucket) <= capacity
