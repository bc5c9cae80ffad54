"""End-to-end integration scenarios across the whole stack."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import repro
from repro.backends.fast import FastSimulation, FastSimulationConfig
from repro.kademlia.overlay import OverlayConfig
from repro.swarm.chunk import split_content
from repro.swarm.network import SwarmNetwork, SwarmNetworkConfig


class TestQuickSimulation:
    def test_readme_quickstart(self):
        result = repro.quick_simulation(
            bucket_size=4, originator_share=0.2, n_files=50, n_nodes=100,
        )
        assert result.files == 50
        assert "F2 Gini" in result.summary()

    def test_version_exposed(self):
        # Keep in sync with [project] version in pyproject.toml.
        assert repro.__version__ == "1.2.0"


class TestContentRoundTrip:
    def test_upload_download_verifies_bytes(self):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=OverlayConfig(n_nodes=60, bits=12, seed=4),
            implicit_storage=False,
        ))
        content = b"fair incentivization of bandwidth sharing " * 300
        manifest = split_content(1, content, network.overlay.space)
        uploader = network.addresses[0]
        network.upload_file(uploader, manifest)
        downloader = network.addresses[1]
        receipt = network.download_file(downloader, manifest)
        assert receipt.chunks == len(manifest)
        # Every chunk is retrievable from where the route ended.
        for retrieval, address in zip(
            receipt.retrievals, manifest.chunk_addresses
        ):
            server = network.node(retrieval.route.storer)
            assert server.has_chunk(address) or retrieval.source == "local"


class TestMultiMachineStory:
    def test_split_runs_merge_to_single_result(self):
        base = dict(
            n_nodes=100, bits=12, bucket_size=4, originator_share=1.0,
            file_min=5, file_max=15, overlay_seed=5,
        )
        whole = FastSimulation(FastSimulationConfig(
            **base, n_files=40, workload_seed=1,
        )).run()
        part_a = FastSimulation(FastSimulationConfig(
            **base, n_files=20, workload_seed=2,
        )).run()
        part_b = FastSimulation(FastSimulationConfig(
            **base, n_files=20, workload_seed=3,
        )).run()
        merged = part_a.merge(part_b)
        assert merged.files == whole.files
        # Same overlay: storers agree, so per-node traffic is of the
        # same magnitude even though the workloads differ.
        assert merged.forwarded.sum() == pytest.approx(
            whole.forwarded.sum(), rel=0.3
        )

    def test_merge_adds_every_field_and_leaves_its_inputs(self):
        config = FastSimulationConfig(
            n_nodes=60, bits=10, n_files=10, file_min=3, file_max=6,
        )
        part_a = FastSimulation(config).run()
        part_b = FastSimulation(
            dataclasses.replace(config, workload_seed=9)).run()
        part_a.latency_ms = np.array([1.0, 2.0])
        part_b.latency_ms = np.array([3.0])
        before = copy.deepcopy(part_a)
        merged = part_a.merge(part_b)
        for name in ("forwarded", "first_hop", "income", "expenditure"):
            np.testing.assert_array_equal(
                getattr(merged, name),
                getattr(before, name) + getattr(part_b, name))
            np.testing.assert_array_equal(getattr(part_a, name),
                                          getattr(before, name))
        for name in ("files", "chunks", "total_hops", "local_hits",
                     "fallbacks", "cache_hits", "unavailable"):
            assert getattr(merged, name) == (getattr(before, name)
                                             + getattr(part_b, name))
        for hops in set(before.hop_histogram) | set(part_b.hop_histogram):
            assert merged.hop_histogram[hops] == (
                before.hop_histogram.get(hops, 0)
                + part_b.hop_histogram.get(hops, 0))
        assert part_a.hop_histogram == before.hop_histogram
        np.testing.assert_array_equal(merged.latency_ms, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(part_a.latency_ms, [1.0, 2.0])


class TestSeedIsolation:
    def test_overlay_and_workload_seeds_independent(self):
        a = FastSimulation(FastSimulationConfig(
            n_nodes=80, bits=11, n_files=10, file_min=5, file_max=10,
            overlay_seed=1, workload_seed=1,
        )).run()
        b = FastSimulation(FastSimulationConfig(
            n_nodes=80, bits=11, n_files=10, file_min=5, file_max=10,
            overlay_seed=1, workload_seed=1,
        )).run()
        assert np.array_equal(a.node_addresses, b.node_addresses)
        assert np.array_equal(a.forwarded, b.forwarded)
