"""BitTorrent-style tit-for-tat baseline (paper §I).

The paper contrasts Swarm's token incentives with BitTorrent's
tit-for-tat, where "rewards are only given as access to the service":
a peer's payoff is the download bandwidth reciprocated by the peers it
uploads to. To compare fairness properties across mechanism families,
this module implements a self-contained single-swarm BitTorrent model
with the classic components of Cohen's choking algorithm:

* fixed number of unchoke slots, re-evaluated every round by peer
  upload rate toward us (reciprocation);
* one rotating *optimistic unchoke* slot;
* rarest-first piece selection over the local neighborhood view.

The :class:`TitForTatSwarm` runs rounds until all leechers complete
(or a round cap). ``income`` is defined as bytes downloaded (service
received — the only reward TFT pays) and ``contribution`` as bytes
uploaded, which slots directly into the paper's F1/F2 metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .._validation import require_fraction, require_int
from ..errors import ConfigurationError

__all__ = ["TitForTatConfig", "TitForTatPeer", "TitForTatSwarm"]


@dataclass(frozen=True)
class TitForTatConfig:
    """Parameters of the BitTorrent swarm model."""

    n_peers: int = 50
    n_pieces: int = 200
    seed_fraction: float = 0.1
    unchoke_slots: int = 4
    optimistic_interval: int = 3
    peer_view: int = 12
    uploads_per_round: int = 1
    max_rounds: int = 2000
    seed: int = 42

    def __post_init__(self) -> None:
        require_int(self.n_peers, "n_peers")
        require_int(self.n_pieces, "n_pieces")
        require_int(self.unchoke_slots, "unchoke_slots")
        require_int(self.optimistic_interval, "optimistic_interval")
        require_int(self.peer_view, "peer_view")
        require_int(self.uploads_per_round, "uploads_per_round")
        require_int(self.max_rounds, "max_rounds")
        require_fraction(self.seed_fraction, "seed_fraction")
        if self.n_peers < 2:
            raise ConfigurationError(
                f"n_peers must be >= 2, got {self.n_peers}"
            )
        if self.n_pieces < 1:
            raise ConfigurationError(
                f"n_pieces must be >= 1, got {self.n_pieces}"
            )
        if self.unchoke_slots < 1:
            raise ConfigurationError(
                f"unchoke_slots must be >= 1, got {self.unchoke_slots}"
            )
        if self.peer_view < 1:
            raise ConfigurationError(
                f"peer_view must be >= 1, got {self.peer_view}"
            )


@dataclass
class TitForTatPeer:
    """One peer's state in the swarm."""

    peer_id: int
    pieces: set[int] = field(default_factory=set)
    uploaded: int = 0
    downloaded: int = 0
    neighbors: tuple[int, ...] = ()
    optimistic: int | None = None

    def is_seed(self, n_pieces: int) -> bool:
        """Whether this peer holds every piece."""
        return len(self.pieces) >= n_pieces


class TitForTatSwarm:
    """A single-file BitTorrent swarm with the classic choke algorithm."""

    def __init__(self, config: TitForTatConfig | None = None) -> None:
        self.config = config if config is not None else TitForTatConfig()
        rng = np.random.default_rng(self.config.seed)
        self._rng = rng
        n = self.config.n_peers
        n_seeds = max(1, round(self.config.seed_fraction * n))
        all_pieces = set(range(self.config.n_pieces))
        self.peers: list[TitForTatPeer] = []
        for peer_id in range(n):
            pieces = set(all_pieces) if peer_id < n_seeds else set()
            self.peers.append(TitForTatPeer(peer_id=peer_id, pieces=pieces))
        # Static random peer views, like a tracker handing out peer lists.
        for peer in self.peers:
            others = [p for p in range(n) if p != peer.peer_id]
            view_size = min(self.config.peer_view, len(others))
            peer.neighbors = tuple(
                int(x) for x in rng.choice(others, size=view_size, replace=False)
            )
        # received[a][b] = pieces b uploaded to a in the last round
        # (drives a's reciprocation ranking of b).
        self._received_last_round: list[dict[int, int]] = [
            {} for _ in range(n)
        ]
        # downloader id -> neighbourhood piece counts for this round.
        self._round_availability: dict[int, Counter[int]] = {}
        self.rounds_run = 0

    # ------------------------------------------------------------------
    # Choking

    def _unchoked_by(self, peer: TitForTatPeer, round_index: int) -> list[int]:
        """Neighbors *peer* unchokes this round (regular + optimistic)."""
        interested = [
            neighbor for neighbor in peer.neighbors
            if self._wants_from(self.peers[neighbor], peer)
        ]
        if not interested:
            return []
        received = self._received_last_round[peer.peer_id]
        ranked = sorted(
            interested, key=lambda nb: received.get(nb, 0), reverse=True
        )
        slots = ranked[: self.config.unchoke_slots]
        if round_index % self.config.optimistic_interval == 0:
            choked = [nb for nb in interested if nb not in slots]
            if choked:
                peer.optimistic = int(self._rng.choice(choked))
        if peer.optimistic is not None and peer.optimistic in interested:
            if peer.optimistic not in slots:
                slots.append(peer.optimistic)
        return slots

    def _wants_from(self, downloader: TitForTatPeer,
                    uploader: TitForTatPeer) -> bool:
        """Whether *downloader* is interested in *uploader*'s pieces."""
        if downloader.is_seed(self.config.n_pieces):
            return False
        return bool(uploader.pieces - downloader.pieces)

    def _pick_piece(self, downloader: TitForTatPeer,
                    uploader: TitForTatPeer) -> int | None:
        """Rarest-first piece selection over the downloader's view."""
        candidates = uploader.pieces - downloader.pieces
        if not candidates:
            return None
        counts = self._availability(downloader)
        rarest = min(counts[piece] for piece in candidates)
        rarest_pieces = sorted(p for p in candidates if counts[p] == rarest)
        return int(self._rng.choice(rarest_pieces))

    def _availability(self, downloader: TitForTatPeer) -> Counter[int]:
        """How many of *downloader*'s neighbours hold each piece.

        No peer's pieces change while a round picks (transfers land
        after every pick), so each downloader's counts are taken once
        per round.
        """
        counts = self._round_availability.get(downloader.peer_id)
        if counts is None:
            counts = Counter(chain.from_iterable(
                self.peers[neighbor].pieces
                for neighbor in downloader.neighbors
            ))
            self._round_availability[downloader.peer_id] = counts
        return counts

    # ------------------------------------------------------------------
    # Simulation

    def step(self, round_index: int) -> int:
        """Run one round; returns pieces transferred."""
        transfers: list[tuple[int, int, int]] = []  # (uploader, downloader, piece)
        self._round_availability = {}
        for peer in self.peers:
            if not peer.pieces:
                continue
            for downloader_id in self._unchoked_by(peer, round_index):
                downloader = self.peers[downloader_id]
                for _ in range(self.config.uploads_per_round):
                    piece = self._pick_piece(downloader, peer)
                    if piece is None:
                        break
                    transfers.append((peer.peer_id, downloader_id, piece))
        received_now: list[dict[int, int]] = [{} for _ in self.peers]
        for uploader_id, downloader_id, piece in transfers:
            downloader = self.peers[downloader_id]
            if piece in downloader.pieces:
                continue  # Duplicate within the round; only count once.
            downloader.pieces.add(piece)
            downloader.downloaded += 1
            self.peers[uploader_id].uploaded += 1
            bucket = received_now[downloader_id]
            bucket[uploader_id] = bucket.get(uploader_id, 0) + 1
        self._received_last_round = received_now
        return len(transfers)

    def run(self) -> int:
        """Run until everyone completes or the round cap; returns rounds."""
        for round_index in range(self.config.max_rounds):
            all_done = all(
                peer.is_seed(self.config.n_pieces) for peer in self.peers
            )
            if all_done:
                break
            self.step(round_index)
            self.rounds_run += 1
        return self.rounds_run

    # ------------------------------------------------------------------
    # Fairness views (service access is the only TFT reward)

    def incomes(self) -> list[float]:
        """Reward per peer = bytes (pieces) of service received."""
        return [float(peer.downloaded) for peer in self.peers]

    def contributions(self) -> list[float]:
        """Contribution per peer = pieces uploaded."""
        return [float(peer.uploaded) for peer in self.peers]

    def completion_fraction(self) -> float:
        """Fraction of peers holding the complete file."""
        done = sum(
            1 for peer in self.peers if peer.is_seed(self.config.n_pieces)
        )
        return done / len(self.peers)
