"""Integration: the fast backend agrees with the reference network.

The library runs the paper's simulation two ways: the vectorized
backend (FastSimulation) and the reference network driven directly,
one ``SwarmNetwork.download_file`` call per download (what the
``reference`` backend does for each event). On a shared overlay and
workload both must report identical traffic and fairness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.fast import FastSimulation, FastSimulationConfig
from repro.swarm.chunk import FileManifest
from repro.swarm.network import SwarmNetwork, SwarmNetworkConfig


CONFIG = FastSimulationConfig(
    n_nodes=90, bits=11, bucket_size=4, originator_share=0.5,
    n_files=15, file_min=5, file_max=20, overlay_seed=4,
    workload_seed=11,
)


@pytest.fixture(scope="module")
def outcomes():
    fast = FastSimulation(CONFIG).run()

    network = SwarmNetwork(SwarmNetworkConfig(
        overlay=CONFIG.overlay_config(), pricing=CONFIG.pricing,
    ))
    events = CONFIG.workload().materialize(
        network.overlay.address_array(), network.overlay.space
    )
    receipts = [
        network.download_file(int(event.originator), FileManifest(
            file_id=event.file_id,
            chunk_addresses=tuple(int(a) for a in event.chunk_addresses),
        ))
        for event in events
    ]
    return fast, network, receipts


class TestFastAgreesWithNetwork:
    def test_total_traffic_identical(self, outcomes):
        fast, network, receipts = outcomes
        assert int(fast.forwarded.sum()) == int(
            network.forwarded_per_node().sum()
        )
        assert sum(r.total_hops for r in receipts) == int(
            fast.forwarded.sum()
        )

    def test_per_node_traffic_identical(self, outcomes):
        fast, network, _receipts = outcomes
        assert np.array_equal(fast.forwarded, network.forwarded_per_node())
        assert np.array_equal(fast.first_hop, network.first_hop_per_node())

    def test_chunk_counts_identical(self, outcomes):
        fast, _network, receipts = outcomes
        assert sum(r.chunks for r in receipts) == fast.chunks

    def test_fairness_identical(self, outcomes):
        fast, network, _receipts = outcomes
        assert network.paper_f1().f1_gini == pytest.approx(
            fast.f1_gini(), abs=1e-9
        )
        assert network.fairness().f2_gini == pytest.approx(
            fast.f2_gini(), abs=1e-9
        )

    def test_files_counted(self, outcomes):
        fast, network, receipts = outcomes
        assert fast.files == CONFIG.n_files
        assert network.files_downloaded == CONFIG.n_files
        assert len(receipts) == CONFIG.n_files
