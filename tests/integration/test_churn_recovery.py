"""Integration: replicated data stays available under churn.

A seeded liveness mask takes about a fifth of the nodes offline;
neighbourhood replication keeps nearly every chunk held by at least
one live node.
"""

from __future__ import annotations

import pytest

from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.swarm.node import SwarmNode
from repro.swarm.storage import NeighborhoodPlacement


@pytest.fixture()
def world():
    overlay = Overlay.build(OverlayConfig(n_nodes=60, bits=11, seed=33))
    nodes = {a: SwarmNode(a, overlay.table(a)) for a in overlay.addresses}
    return overlay, nodes


class TestChurnRecoveryLifecycle:
    def test_churning_population_keeps_replicated_data_available(
        self, world, rng
    ):
        overlay, nodes = world
        placement = NeighborhoodPlacement(replicas=4)
        chunks = [int(c) for c in rng.integers(0, overlay.space.size,
                                               size=80)]
        for chunk in chunks:
            for storer in placement.storers(chunk, overlay):
                nodes[storer].store.put(chunk)

        alive = rng.random(len(overlay.addresses)) < 0.8
        live = {a for a, up in zip(overlay.addresses, alive) if up}
        assert 0.7 < len(live) / len(overlay.addresses) < 0.9

        # With 4 replicas and ~80% liveness, nearly every chunk has at
        # least one live holder.
        available = sum(
            any(holder in live and chunk in nodes[holder].store
                for holder in placement.storers(chunk, overlay))
            for chunk in chunks
        )
        assert available / len(chunks) > 0.95
