"""Unit tests for the SwarmNetwork facade (repro.swarm.network)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, OverlayError
from repro.kademlia.overlay import OverlayConfig
from repro.swarm.chunk import FileManifest, split_content
from repro.swarm.network import SwarmNetwork, SwarmNetworkConfig


@pytest.fixture(scope="module")
def network() -> SwarmNetwork:
    return SwarmNetwork(SwarmNetworkConfig(
        overlay=OverlayConfig(n_nodes=80, bits=12, seed=21),
    ))


class TestConfig:
    def test_defaults_match_paper(self):
        config = SwarmNetworkConfig()
        assert config.pricing == "xor"
        assert config.policy == "zero-proximity"
        assert config.placement == "closest"
        assert config.implicit_storage is True
        assert config.cache == "none"

    def test_negative_transaction_fee_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmNetworkConfig(transaction_fee=-0.1)

    @pytest.mark.parametrize("base", [0.0, -1.0])
    def test_non_positive_pricing_base_rejected(self, base):
        with pytest.raises(ConfigurationError):
            SwarmNetworkConfig(pricing_base=base)

    def test_bad_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmNetworkConfig(placement="everywhere")

    def test_placement_factories(self):
        assert SwarmNetworkConfig().make_placement().__class__.__name__ == (
            "ClosestNodePlacement"
        )
        config = SwarmNetworkConfig(placement="neighborhood", replicas=2)
        assert config.make_placement().replicas == 2


class TestDownload:
    def test_download_accounts_traffic(self, network, rng):
        before = network.forwarded_per_node().sum()
        originator = int(rng.choice(network.overlay.address_array()))
        manifest = FileManifest(
            file_id=1,
            chunk_addresses=tuple(
                int(a) for a in
                rng.integers(0, network.overlay.space.size, size=25)
            ),
        )
        receipt = network.download_file(originator, manifest)
        assert receipt.chunks == 25
        after = network.forwarded_per_node().sum()
        assert after - before == receipt.total_hops

    def test_unknown_originator_raises(self, network):
        manifest = FileManifest(file_id=1, chunk_addresses=(1,))
        missing = next(
            a for a in range(network.overlay.space.size)
            if a not in network.overlay
        )
        with pytest.raises(OverlayError):
            network.download_file(missing, manifest)

    def test_views_are_aligned(self, network):
        n = len(network.addresses)
        assert network.income_per_node().shape == (n,)
        assert network.forwarded_per_node().shape == (n,)
        assert network.first_hop_per_node().shape == (n,)

    def test_first_hop_never_exceeds_forwarded(self, network):
        assert np.all(
            network.first_hop_per_node() <= network.forwarded_per_node()
        )

    def test_fairness_reports(self, network):
        report = network.fairness()
        assert 0.0 <= report.f2_gini <= 1.0
        paper_f1 = network.paper_f1()
        assert 0.0 <= paper_f1.f1_gini <= 1.0


class TestUploadAndSeed:
    def test_upload_then_download_roundtrip(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
            implicit_storage=False,
        ))
        rng = np.random.default_rng(1)
        originator = int(rng.choice(network.overlay.address_array()))
        downloader = int(rng.choice(network.overlay.address_array()))
        manifest = FileManifest(
            file_id=1,
            chunk_addresses=tuple(
                int(a) for a in rng.integers(0, 1024, size=10)
            ),
        )
        network.upload_file(originator, manifest)
        receipt = network.download_file(downloader, manifest)
        assert receipt.chunks == 10
        assert network.files_uploaded == 1
        assert network.files_downloaded == 1

    def test_upload_accounts_bandwidth(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
            implicit_storage=False,
        ))
        manifest = FileManifest(file_id=1, chunk_addresses=(511, 767))
        originator = network.addresses[0]
        network.upload_file(originator, manifest)
        assert network.forwarded_per_node().sum() > 0

    def test_real_content_roundtrip(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
            implicit_storage=False,
        ))
        content = b"decentralized storage" * 600  # > 3 chunks
        manifest = split_content(9, content, network.overlay.space)
        network.upload_file(network.addresses[0], manifest)
        rebuilt = []
        for address in manifest.chunk_addresses:
            storer = network.overlay.closest_node(address)
            rebuilt.append(network.node(storer).store.get(address))
        assert b"".join(rebuilt) == content


class TestAmortize:
    def test_amortize_reduces_debt(self, rng):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
        ))
        originator = int(rng.choice(network.overlay.address_array()))
        manifest = FileManifest(
            file_id=1,
            chunk_addresses=tuple(
                int(a) for a in rng.integers(0, 1024, size=30)
            ),
        )
        network.download_file(originator, manifest)
        forgiven = network.amortize(0.001)
        assert forgiven > 0

    def test_fresh_network_forgives_nothing(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
        ))
        assert network.amortize(10.0) == 0.0

    def test_negative_units_rejected(self, network):
        with pytest.raises(ConfigurationError):
            network.amortize(-1.0)

    def test_amortize_forgives_debt_not_traffic(self, rng):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
        ))
        originator = int(rng.choice(network.overlay.address_array()))
        manifest = FileManifest(
            file_id=1,
            chunk_addresses=tuple(
                int(a) for a in rng.integers(0, 1024, size=30)
            ),
        )
        network.download_file(originator, manifest)
        forwarded = network.forwarded_per_node().copy()
        income = network.income_per_node().copy()
        ledger = network.incentives.ledger
        debt = sum(abs(channel.balance) for channel in ledger.channels())
        assert network.amortize(1e9) == pytest.approx(debt)
        assert all(channel.balance == 0.0 for channel in ledger.channels())
        np.testing.assert_array_equal(network.forwarded_per_node(),
                                      forwarded)
        np.testing.assert_array_equal(network.income_per_node(), income)


class TestLookupsAndReceipts:
    def test_unknown_node_lookup_raises(self, network):
        missing = next(
            a for a in range(network.overlay.space.size)
            if a not in network.overlay
        )
        with pytest.raises(OverlayError, match="no node"):
            network.node(missing)

    def test_addresses_follow_the_overlay(self, network):
        assert network.addresses == network.overlay.addresses
        assert set(network.nodes) == set(network.addresses)

    def test_average_forwarded_is_the_mean_counter(self, network):
        assert network.average_forwarded_chunks() == pytest.approx(
            network.forwarded_per_node().mean())

    def test_receipt_totals_sum_its_routes(self, rng):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
        ))
        originator = int(rng.choice(network.overlay.address_array()))
        manifest = FileManifest(file_id=7, chunk_addresses=(3, 500, 1000))
        receipt = network.download_file(originator, manifest)
        assert receipt.file_id == 7
        assert receipt.total_hops == sum(
            r.route.hops for r in receipt.retrievals)
        assert receipt.cache_hits == 0

    def test_neighborhood_placement_seeds_every_replica(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=40, bits=10, seed=3),
            placement="neighborhood", replicas=3, implicit_storage=False,
        ))
        manifest = FileManifest(file_id=1, chunk_addresses=(5, 900))
        network.upload_file(network.addresses[0], manifest)
        for address in manifest.chunk_addresses:
            holders = [a for a in network.addresses
                       if address in network.node(a).store]
            storers = network.overlay.space.sort_by_distance(
                address, network.addresses)[:3]
            assert sorted(holders) == sorted(storers)
