"""Integration: replicated data stays available under churn.

The churn model, driven by the discrete-event scheduler, takes nodes
offline and brings them back; neighbourhood replication keeps nearly
every chunk held by at least one live node.
"""

from __future__ import annotations

import pytest

from repro.engine.des import EventScheduler
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.swarm.churn import ChurnModel
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

        churn = ChurnModel(overlay, mean_session=20.0, mean_downtime=5.0,
                           protected_fraction=0.0, seed=2)
        scheduler = EventScheduler()
        churn.install(scheduler)
        scheduler.run_until(100.0)

        # With 4 replicas and ~80% liveness, nearly every chunk has at
        # least one live holder.
        available = 0
        for chunk in chunks:
            holders = placement.storers(chunk, overlay)
            if any(churn.is_live(holder) for holder in holders):
                available += 1
        assert available / len(chunks) > 0.95
