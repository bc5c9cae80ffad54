"""Chunk placement and per-node stores (paper §IV-B).

The paper simplifies placement to "only the node closest to a data
chunk's address is storing that chunk". :class:`PlacementPolicy`
captures that rule (:class:`ClosestNodePlacement`) and the real
Swarm behaviour of replicating within the chunk's neighborhood
(:class:`NeighborhoodPlacement`) used by redundancy extensions.

:class:`ChunkStore` is one node's storage: a capacity-bounded map of
chunk address to payload that distinguishes *pinned* content (the
node is a designated storer) from *cached* content (picked up while
forwarding; evictable, see :mod:`repro.swarm.caching`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .._validation import require_int
from ..errors import ConfigurationError
from ..kademlia.overlay import Overlay

__all__ = [
    "ChunkStore",
    "PlacementPolicy",
    "ClosestNodePlacement",
    "NeighborhoodPlacement",
]


class ChunkStore:
    """One node's chunk storage.

    ``capacity`` bounds the number of *pinned* chunks (``None`` means
    unbounded, the paper's setting). Cached chunks live in the cache
    policy object owned by the node, not here.
    """

    def __init__(self, owner: int, capacity: int | None = None) -> None:
        if capacity is not None:
            require_int(capacity, "capacity")
            if capacity < 1:
                raise ConfigurationError(
                    f"capacity must be >= 1, got {capacity}"
                )
        self.owner = owner
        self.capacity = capacity
        self._chunks: dict[int, bytes | None] = {}

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, address: object) -> bool:
        return address in self._chunks

    @property
    def is_full(self) -> bool:
        """Whether the pinned-chunk capacity is exhausted."""
        return self.capacity is not None and len(self._chunks) >= self.capacity

    def put(self, address: int, data: bytes | None = None) -> bool:
        """Pin a chunk; return False when the store is full.

        Re-putting an existing address updates its payload and always
        succeeds (idempotent sync).
        """
        if address in self._chunks:
            self._chunks[address] = data
            return True
        if self.is_full:
            return False
        self._chunks[address] = data
        return True

    def get(self, address: int) -> bytes | None:
        """Payload of a stored chunk; raises KeyError when absent."""
        return self._chunks[address]

    def addresses(self) -> list[int]:
        """All pinned chunk addresses."""
        return list(self._chunks)


class PlacementPolicy(ABC):
    """Which nodes are responsible for storing a chunk."""

    @abstractmethod
    def storers(self, chunk_address: int, overlay: Overlay) -> list[int]:
        """Node addresses that must pin *chunk_address*, primary first."""


@dataclass(frozen=True)
class ClosestNodePlacement(PlacementPolicy):
    """The paper's rule: only the XOR-closest node stores the chunk."""

    def storers(self, chunk_address: int, overlay: Overlay) -> list[int]:
        return [overlay.closest_node(chunk_address)]


@dataclass(frozen=True)
class NeighborhoodPlacement(PlacementPolicy):
    """Real Swarm: the chunk's whole neighborhood pins it.

    The *replicas* XOR-closest nodes store the chunk, the closest
    first. Used by availability extensions; retrieval still routes
    toward the closest.
    """

    replicas: int = 4

    def __post_init__(self) -> None:
        require_int(self.replicas, "replicas")
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )

    def storers(self, chunk_address: int, overlay: Overlay) -> list[int]:
        space = overlay.space
        space.validate(chunk_address, name="chunk_address")
        ordered = space.sort_by_distance(chunk_address, overlay.addresses)
        return ordered[: self.replicas]
