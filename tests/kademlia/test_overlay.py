"""Unit tests for overlay construction (repro.kademlia.overlay)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, OverlayError
from repro.kademlia.address import common_prefix_length
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.table import RoutingTable

from . import overlay_oracle


def degree_map(overlay: Overlay) -> dict[int, int]:
    """Node address -> number of known peers."""
    return dict(zip(overlay.addresses, overlay.degrees().tolist()))


class TestOverlayConfig:
    def test_paper_defaults(self):
        config = OverlayConfig()
        assert config.n_nodes == 1000
        assert config.bits == 16
        assert config.limits.default == 4

    def test_paper_factory(self):
        config = OverlayConfig.paper(bucket_size=20, seed=9)
        assert config.limits.default == 20
        assert config.seed == 9

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot fit"):
            OverlayConfig(n_nodes=300, bits=8)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(n_nodes=1, bits=8)

    def test_bad_neighborhood_min_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(n_nodes=10, bits=8, neighborhood_min=0)

    @pytest.mark.parametrize("bits", [63, 64])
    def test_address_space_too_wide_to_draw_rejected(self, bits):
        with pytest.raises(ConfigurationError, match="at most 62 bits"):
            OverlayConfig(n_nodes=10, bits=bits)

    def test_widest_drawable_space_builds(self):
        overlay = Overlay.build(OverlayConfig(n_nodes=10, bits=62))
        assert max(overlay.addresses) < 1 << 62

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            OverlayConfig(n_nodes=10, bits=8, seed=-1)

    def test_value_equality(self):
        assert OverlayConfig(n_nodes=10, bits=8) == OverlayConfig(
            n_nodes=10, bits=8
        )


class TestBuildDeterminism:
    def test_same_config_same_overlay(self):
        config = OverlayConfig(n_nodes=50, bits=10, seed=3)
        a = Overlay.build(config)
        b = Overlay.build(config)
        assert a.addresses == b.addresses
        for address in a.addresses:
            assert a.table(address).peers() == b.table(address).peers()

    def test_different_seed_different_overlay(self):
        a = Overlay.build(OverlayConfig(n_nodes=50, bits=10, seed=3))
        b = Overlay.build(OverlayConfig(n_nodes=50, bits=10, seed=4))
        assert a.addresses != b.addresses


class TestBuildStructure:
    def test_unique_addresses(self, medium_overlay):
        assert len(set(medium_overlay.addresses)) == len(medium_overlay)

    def test_buckets_hold_correct_proximity(self, medium_overlay):
        space = medium_overlay.space
        for owner in list(medium_overlay.addresses)[:20]:
            table = medium_overlay.table(owner)
            for bucket in table.buckets:
                for peer in bucket:
                    assert space.proximity(owner, peer) == bucket.index

    def test_small_candidate_sets_fully_included(self):
        # When a bucket has <= k candidates, all must be present.
        overlay = Overlay.build(OverlayConfig(n_nodes=40, bits=8, seed=2))
        space = overlay.space
        addresses = set(overlay.addresses)
        for owner in overlay.addresses:
            table = overlay.table(owner)
            for index in range(space.bits):
                candidates = {
                    other for other in addresses
                    if other != owner
                    and common_prefix_length(owner, other, space.bits) == index
                }
                if len(candidates) <= 4:
                    assert candidates <= set(table.bucket(index).peers)

    def test_neighborhood_contains_nearest_nodes(self, medium_overlay):
        # Every node must know its 4 XOR-nearest peers (the
        # neighborhood rule guarantees at least that).
        space = medium_overlay.space
        for owner in list(medium_overlay.addresses)[:30]:
            table = medium_overlay.table(owner)
            others = [a for a in medium_overlay.addresses if a != owner]
            nearest = space.sort_by_distance(owner, others)[:4]
            prefix_nearest = [
                n for n in nearest
                if space.proximity(owner, n)
                >= table.neighborhood_depth()
            ]
            for peer in prefix_nearest:
                assert peer in table

    def test_symmetric_neighborhood_edges(self):
        overlay = Overlay.build(
            OverlayConfig(n_nodes=60, bits=10, seed=7,
                          symmetric_neighborhood=True)
        )
        space = overlay.space
        for owner in overlay.addresses:
            table = overlay.table(owner)
            depth = table.neighborhood_depth()
            for peer in table.peers():
                if space.proximity(owner, peer) >= depth:
                    assert owner in overlay.table(peer)


class TestQueries:
    def test_closest_node_brute_force(self, medium_overlay, rng):
        addresses = np.asarray(medium_overlay.addresses)
        for target in rng.integers(0, medium_overlay.space.size, size=50):
            expected = min(addresses, key=lambda a: int(a) ^ int(target))
            assert medium_overlay.closest_node(int(target)) == expected

    def test_storer_table_matches_closest_node(self, small_overlay):
        storers = small_overlay.storer_table()
        for target in range(0, small_overlay.space.size, 7):
            expected = small_overlay.closest_node(target)
            assert small_overlay.addresses[storers[target]] == expected

    def test_index_of_roundtrip(self, small_overlay):
        for index, address in enumerate(small_overlay.addresses):
            assert small_overlay.index_of(address) == index

    def test_index_of_unknown_raises(self, small_overlay):
        missing = next(
            a for a in range(small_overlay.space.size)
            if a not in small_overlay
        )
        with pytest.raises(OverlayError):
            small_overlay.index_of(missing)

    def test_table_unknown_raises(self, small_overlay):
        with pytest.raises(OverlayError):
            small_overlay.table(-1)

class TestLazyTables:
    """Routing-table objects come from the edge list, on demand."""

    def test_edge_readers_build_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a RoutingTable was built")

        monkeypatch.setattr(RoutingTable, "__init__", refuse)
        overlay = Overlay.build(OverlayConfig(n_nodes=80, bits=10, seed=4))
        overlay.fingerprint()
        degree_map(overlay)
        Overlay.from_dict(overlay.to_dict()).fingerprint()

    @pytest.mark.parametrize("config", [
        OverlayConfig(n_nodes=300, bits=16),
        OverlayConfig(n_nodes=120, bits=10, seed=7,
                      limits=BucketLimits(default=2, overrides={0: 9})),
        OverlayConfig(n_nodes=50, bits=8, seed=1, neighborhood_min=6,
                      symmetric_neighborhood=False),
    ], ids=["300-node", "bucket-0-override", "one-way-neighbourhood"])
    def test_lazy_tables_equal_the_eager_build(self, config):
        overlay = Overlay.build(config)
        eager = overlay_oracle.build(config)
        for address in eager.addresses:
            ours = [bucket.peers for bucket in overlay.table(address).buckets]
            theirs = [bucket.peers for bucket in eager.table(address).buckets]
            assert ours == theirs, address
        assert degree_map(overlay) == {
            address: len(eager.table(address)) for address in eager.addresses}
        assert overlay.to_dict() == eager.to_dict()
        assert overlay.fingerprint() == eager.fingerprint()

    def test_a_table_is_made_once_and_the_edges_stay_fixed(self):
        overlay = Overlay.build(OverlayConfig(n_nodes=40, bits=8, seed=9))
        owner = overlay.addresses[0]
        before = (overlay.to_dict(), degree_map(overlay))
        table = overlay.table(owner)
        assert overlay.table(owner) is table
        table.remove(table.peers()[0])
        assert overlay.table(owner) is table
        assert len(table) == before[1][owner] - 1
        assert (overlay.to_dict(), degree_map(overlay)) == before


class TestPersistence:
    def test_dict_roundtrip(self, small_overlay):
        clone = Overlay.from_dict(small_overlay.to_dict())
        assert clone.addresses == small_overlay.addresses
        for address in small_overlay.addresses:
            assert set(clone.table(address).peers()) == set(
                small_overlay.table(address).peers()
            )

    def test_file_roundtrip(self, small_overlay, tmp_path):
        path = tmp_path / "overlay.json"
        small_overlay.save(path)
        clone = Overlay.load(path)
        assert clone.addresses == small_overlay.addresses

    def test_bucket_zero_override_roundtrip(self, tmp_path):
        config = OverlayConfig(
            n_nodes=30, bits=8, seed=1,
            limits=BucketLimits(default=4, overrides={0: 12}),
        )
        overlay = Overlay.build(config)
        clone = Overlay.from_dict(overlay.to_dict())
        assert clone.config.limits.capacity(0) == 12


class TestValidationOnConstruction:
    def test_duplicate_addresses_rejected(self, small_overlay):
        addresses = list(small_overlay.addresses)
        tables = {a: small_overlay.table(a) for a in addresses}
        addresses[1] = addresses[0]
        with pytest.raises(OverlayError, match="unique"):
            Overlay(small_overlay.config, addresses, tables)

    def test_missing_table_rejected(self, small_overlay):
        addresses = list(small_overlay.addresses)
        tables = {a: small_overlay.table(a) for a in addresses[:-1]}
        with pytest.raises(OverlayError, match="missing routing table"):
            Overlay(small_overlay.config, addresses, tables)

    def test_peer_outside_the_overlay_rejected(self, small_overlay):
        addresses = list(small_overlay.addresses)
        stranger = next(a for a in range(small_overlay.space.size)
                        if a not in small_overlay)
        table = RoutingTable(addresses[0], small_overlay.space)
        table.add_unbounded(stranger)
        tables = {a: small_overlay.table(a) for a in addresses[1:]}
        tables[addresses[0]] = table
        with pytest.raises(OverlayError, match="not a node of the overlay"):
            Overlay(small_overlay.config, addresses, tables)


class TestFingerprintPins:
    """Fingerprints of the benchmark topologies (16 bits, seed 42).

    Recorded from the per-node builder the whole-array build replaced;
    any change to the RNG call sequence or to which edges a table gets
    moves them.
    """

    @pytest.mark.parametrize("n_nodes, bucket_size, digest", [
        (1000, 4, "25ffffe57fb091da93c5bf481eacaeaf"
                  "4a0b952ff4ed00e1cc8340209fb4ccc0"),
        (300, 2, "f6e386bf525efddbfd00eb77eb54b763"
                 "1e76b0fa5176811b3db4086140b1edae"),
        (300, 4, "3166a7a789b25cc599d6c95a1806dca7"
                 "77c28a50ab3165501d11f7f94f5fcdc5"),
        (300, 8, "a6ac7b979e1f505e92cc4dcad1cad057"
                 "136d693c5dc8b4b606e5e3bb1dde8974"),
        (300, 16, "2a44330063bbec88c6be12919de36e3b"
                  "f49d7ddd40ffd4af9ab5c3f13c8b7d83"),
        (60, 4, "30e85221de60e12af41f7afbf1ddb633"
                "e62c9aecb964b142a41ce728efe6897f"),
        (60, 2, "bde2da2bd91d95c955aa641a7cb15fe9"
                "6c3ee2802a7e7855b84af99df8d2b9fd"),
    ])
    def test_benchmark_topology_fingerprint(self, n_nodes, bucket_size,
                                            digest):
        overlay = Overlay.build(OverlayConfig(
            n_nodes=n_nodes, bits=16,
            limits=BucketLimits.uniform(bucket_size), seed=42,
        ))
        assert overlay.fingerprint() == digest
