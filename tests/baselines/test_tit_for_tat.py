"""Unit tests for the BitTorrent baseline (repro.baselines.tit_for_tat)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines.tit_for_tat import TitForTatConfig, TitForTatSwarm
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def finished_swarm() -> TitForTatSwarm:
    swarm = TitForTatSwarm(TitForTatConfig(
        n_peers=30, n_pieces=60, seed=3, max_rounds=3000,
    ))
    swarm.run()
    return swarm


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_peers": 1},
        {"n_pieces": 0},
        {"unchoke_slots": 0},
        {"peer_view": 0},
        {"seed_fraction": 1.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TitForTatConfig(**kwargs)


class TestSwarmDynamics:
    def test_swarm_completes(self, finished_swarm):
        assert finished_swarm.completion_fraction() == 1.0

    def test_conservation(self, finished_swarm):
        # Every downloaded piece was uploaded by someone.
        assert sum(finished_swarm.incomes()) == sum(
            finished_swarm.contributions()
        )

    def test_initial_seeds_download_nothing(self):
        config = TitForTatConfig(n_peers=20, n_pieces=30,
                                 seed_fraction=0.2, seed=1)
        swarm = TitForTatSwarm(config)
        swarm.run()
        n_seeds = max(1, round(0.2 * 20))
        for peer in swarm.peers[:n_seeds]:
            assert peer.downloaded == 0
            assert peer.uploaded > 0

    def test_leechers_download_full_file(self, finished_swarm):
        n_pieces = finished_swarm.config.n_pieces
        for peer in finished_swarm.peers:
            if peer.downloaded:
                assert peer.downloaded == n_pieces

    def test_deterministic(self):
        config = TitForTatConfig(n_peers=20, n_pieces=30, seed=9)
        a = TitForTatSwarm(config)
        a.run()
        b = TitForTatSwarm(config)
        b.run()
        assert a.incomes() == b.incomes()
        assert a.contributions() == b.contributions()

    def test_pinned_small_swarm(self):
        # Values of the per-pick recount that per-round availability
        # counting replaced: the picks and RNG draws must not move.
        swarm = TitForTatSwarm(TitForTatConfig(
            n_peers=20, n_pieces=30, seed=9, uploads_per_round=2,
        ))
        assert swarm.run() == 11
        assert swarm.contributions() == [
            70.0, 56.0, 38.0, 23.0, 25.0, 29.0, 29.0, 22.0, 29.0, 17.0,
            23.0, 24.0, 19.0, 26.0, 23.0, 13.0, 13.0, 23.0, 17.0, 21.0,
        ]
        assert swarm.incomes() == [0.0, 0.0] + [30.0] * 18

    def test_pinned_baselines_swarm(self):
        # The swarm run_baselines reports (60 peers, 120 pieces).
        swarm = TitForTatSwarm(TitForTatConfig(n_peers=60, n_pieces=120))
        assert swarm.run() == 47
        digest = hashlib.sha256(json.dumps(
            [swarm.contributions(), swarm.incomes()]).encode()).hexdigest()
        assert digest == ("678568f4899423a5d3c15063afbaf6b7"
                          "acef88fdb2a468f91eab11e7b7ceb55f")

    def test_round_cap_respected(self):
        swarm = TitForTatSwarm(TitForTatConfig(
            n_peers=30, n_pieces=500, max_rounds=5, seed=2,
        ))
        assert swarm.run() <= 5


class TestChoking:
    def test_seeds_never_interested(self):
        swarm = TitForTatSwarm(TitForTatConfig(n_peers=10, n_pieces=10))
        seed_peer = swarm.peers[0]
        other = swarm.peers[1]
        assert not swarm._wants_from(seed_peer, other)

    def test_reciprocation_favoured(self):
        # A peer that uploaded to us last round outranks one that did not.
        swarm = TitForTatSwarm(TitForTatConfig(
            n_peers=10, n_pieces=20, unchoke_slots=1,
            optimistic_interval=1000, seed=4,
        ))
        uploader = swarm.peers[0]
        reciprocator, stranger = 1, 2
        uploader.neighbors = (reciprocator, stranger)
        # Both are interested leechers.
        swarm.peers[reciprocator].pieces = set()
        swarm.peers[stranger].pieces = set()
        swarm._received_last_round[0] = {reciprocator: 3}
        unchoked = swarm._unchoked_by(uploader, round_index=1)
        assert unchoked[0] == reciprocator
