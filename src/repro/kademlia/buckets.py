"""K-buckets: the per-proximity-order peer lists of a routing table.

A Kademlia routing table groups known peers by proximity order to the
table owner. Bucket ``i`` holds peers sharing exactly ``i`` leading
bits with the owner (paper §III-A and Fig. 3). Ordinary buckets are
capped at the *bucket size* ``k`` (Swarm default 4, Kademlia paper
default 20); the *neighborhood* — every peer at proximity order at
least the owner's neighborhood depth — is kept uncapped so that
routing can always complete the last hops (the argument is in the
:mod:`repro.kademlia.overlay` docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .._validation import require_int
from ..errors import ConfigurationError, OverlayError

__all__ = ["KBucket", "BucketLimits"]

#: Swarm's default bucket size (paper §IV-B).
SWARM_BUCKET_SIZE = 4
#: The Kademlia paper's default bucket size (paper §IV-B).
KADEMLIA_BUCKET_SIZE = 20
#: Minimum neighborhood population used to derive the depth
#: (paper §III-A: "cannot connect to at least four other nodes").
NEIGHBORHOOD_MIN = 4


@dataclass(frozen=True)
class BucketLimits:
    """Per-bucket capacity configuration.

    ``default`` applies to every bucket not listed in ``overrides``.
    ``overrides`` maps a bucket index to its own capacity — this is how
    the paper's §V ablation ("increase k only for bucket zero") is
    expressed. A capacity of ``None`` means unbounded.
    """

    default: int = SWARM_BUCKET_SIZE
    overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_int(self.default, "default bucket size")
        if self.default < 1:
            raise ConfigurationError(
                f"default bucket size must be >= 1, got {self.default}"
            )
        for index, capacity in self.overrides.items():
            require_int(index, "bucket index")
            require_int(capacity, "bucket capacity override")
            if index < 0:
                raise ConfigurationError(f"bucket index must be >= 0, got {index}")
            if capacity < 1:
                raise ConfigurationError(
                    f"bucket capacity must be >= 1, got {capacity} for "
                    f"bucket {index}"
                )

    def capacity(self, bucket_index: int) -> int:
        """Capacity of the bucket at *bucket_index*."""
        return self.overrides.get(bucket_index, self.default)

    @classmethod
    def uniform(cls, size: int) -> "BucketLimits":
        """All buckets share one capacity (the common case)."""
        return cls(default=size)


class KBucket:
    """An ordered, capacity-limited set of peer addresses.

    Insertion order is preserved (it is the paper's "chosen k of the
    candidates"); membership checks are O(1). The bucket never holds
    duplicates. A full bucket rejects further peers rather than
    evicting — the paper's overlays are static, so no LRU churn
    handling is needed.
    """

    __slots__ = ("index", "capacity", "_order", "_members")

    def __init__(self, index: int, capacity: int | None) -> None:
        require_int(index, "bucket index")
        if index < 0:
            raise ConfigurationError(f"bucket index must be >= 0, got {index}")
        if capacity is not None:
            require_int(capacity, "bucket capacity")
            if capacity < 1:
                raise ConfigurationError(
                    f"bucket capacity must be >= 1, got {capacity}"
                )
        self.index = index
        self.capacity = capacity
        self._order: list[int] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def __contains__(self, address: object) -> bool:
        return address in self._members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KBucket(index={self.index}, capacity={self.capacity}, "
            f"peers={self._order!r})"
        )

    @property
    def is_full(self) -> bool:
        """Whether the bucket has reached its capacity."""
        return self.capacity is not None and len(self._order) >= self.capacity

    @property
    def peers(self) -> tuple[int, ...]:
        """The bucket's peers, in insertion order."""
        return tuple(self._order)

    def add(self, address: int) -> bool:
        """Add *address*; return ``True`` if it was inserted.

        Returns ``False`` when the address is already present or the
        bucket is full. The caller decides whether a full bucket is an
        error.
        """
        if address in self._members:
            return False
        if self.is_full:
            return False
        self._order.append(address)
        self._members.add(address)
        return True

    def add_uncapped(self, address: int) -> bool:
        """Add *address* ignoring the capacity; ``False`` if present."""
        if address in self._members:
            return False
        self._order.append(address)
        self._members.add(address)
        return True

    def remove(self, address: int) -> None:
        """Remove *address*; raise :class:`OverlayError` if absent."""
        if address not in self._members:
            raise OverlayError(
                f"address {address} not in bucket {self.index}"
            )
        self._members.remove(address)
        self._order.remove(address)

    def extend(self, addresses: Sequence[int]) -> int:
        """Add each address until the bucket fills; return count added."""
        added = 0
        for address in addresses:
            if self.is_full:
                break
            if self.add(address):
                added += 1
        return added
