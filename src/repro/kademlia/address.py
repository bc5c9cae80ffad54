"""Overlay addressing for Kademlia-style networks.

Swarm places both nodes and content chunks on a single flat address
space of ``2**bits`` integers and measures distance with the Kademlia
XOR metric. The paper's simulations use ``bits = 16`` (addresses in
``[0, 2**16)``); the helpers here accept any width between 1 and 64
bits so tests can exercise tiny spaces exhaustively.

Key notions (paper §III-A):

* **XOR distance** ``d(a, b) = a ^ b`` — a metric: symmetric,
  ``d(a, b) = 0`` iff ``a == b``, and it satisfies the triangle
  inequality. Uniquely, for any ``a`` and distance ``d`` there is
  exactly one ``b`` with ``d(a, b) = d``, so "the closest node to an
  address" is well defined up to the address itself.
* **Proximity order** ``po(a, b)`` — the number of leading bits the
  two addresses share. ``po`` buckets the address space
  logarithmically: roughly half of a uniform population lies at
  ``po = 0``, a quarter at ``po = 1``, and so on. By convention
  ``po(a, a) == bits``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import AddressError, ConfigurationError

__all__ = [
    "AddressSpace",
    "proximity",
    "common_prefix_length",
    "bit_length_array",
    "target_dtype",
    "xor_nearest_fill",
]

#: Maximum supported address width in bits. 64 keeps every address a
#: machine int; the paper only needs 16.
MAX_BITS = 64


def common_prefix_length(a: int, b: int, bits: int) -> int:
    """Return the number of leading bits shared by *a* and *b*.

    Equals *bits* when the addresses are identical.
    """
    diff = a ^ b
    if diff == 0:
        return bits
    return bits - diff.bit_length()


#: Alias matching the Swarm literature's name for this quantity.
proximity = common_prefix_length


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of every element of an unsigned array.

    ``np.frexp``'s exponent is the bit length, but float64 rounds
    above 2**53 (possibly up a power of two), so it measures each
    32-bit half, which converts exactly.
    """
    values = np.asarray(values, dtype=np.uint64)
    high = np.frexp((values >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((values & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low).astype(np.int64)


def target_dtype(bits: int) -> np.dtype:
    """Smallest unsigned dtype holding every address of a *bits* space.

    The compact-dtype discipline of the vectorized backend: chunk
    target columns (and persisted trace addresses) stay in this dtype
    so the hop kernel never widens them. Spaces beyond 32 bits exceed
    every supported compact dtype and raise.
    """
    if bits < 1:
        raise ConfigurationError(f"bits must be >= 1, got {bits}")
    for candidate in (np.uint16, np.uint32):
        if (1 << bits) - 1 <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise ConfigurationError(
        f"a {bits}-bit address space exceeds the 32-bit capacity of the "
        f"widest supported target dtype"
    )


@dataclass(frozen=True)
class AddressSpace:
    """A flat ``2**bits`` overlay address space.

    The address space is the single authority on address validity,
    distance and proximity computations. It is an immutable value
    object: two spaces with the same width are interchangeable.

    Parameters
    ----------
    bits:
        Address width in bits; the paper uses 16.
    """

    bits: int = 16

    def __post_init__(self) -> None:
        if isinstance(self.bits, bool) or not isinstance(self.bits, int):
            raise ConfigurationError(
                f"bits must be an int, got {type(self.bits).__name__}"
            )
        if not 1 <= self.bits <= MAX_BITS:
            raise ConfigurationError(
                f"bits must be in [1, {MAX_BITS}], got {self.bits}"
            )

    @property
    def size(self) -> int:
        """Number of distinct addresses, ``2**bits``."""
        return 1 << self.bits

    def __contains__(self, address: object) -> bool:
        return (
            isinstance(address, int)
            and not isinstance(address, bool)
            and 0 <= address < self.size
        )

    def validate(self, address: int, *, name: str = "address") -> int:
        """Return *address* if valid, else raise :class:`AddressError`."""
        if address not in self:
            raise AddressError(
                f"{name} {address!r} outside address space [0, {self.size})"
            )
        return address

    def distance(self, a: int, b: int) -> int:
        """XOR distance between two validated addresses."""
        self.validate(a, name="a")
        self.validate(b, name="b")
        return a ^ b

    def proximity(self, a: int, b: int) -> int:
        """Proximity order (shared prefix length) of two addresses."""
        self.validate(a, name="a")
        self.validate(b, name="b")
        return common_prefix_length(a, b, self.bits)

    def bucket_index(self, owner: int, other: int) -> int:
        """Routing-table bucket of *other* from *owner*'s point of view.

        This is exactly the proximity order; kept as a separate name
        because routing tables index buckets by it. Raises
        :class:`AddressError` for ``owner == other`` — a node never
        stores itself in a bucket.
        """
        if owner == other:
            raise AddressError("a node has no bucket for its own address")
        return self.proximity(owner, other)

    def sort_by_distance(self, target: int,
                         candidates: Iterable[int]) -> list[int]:
        """Return *candidates* sorted by increasing XOR distance to *target*."""
        self.validate(target, name="target")
        return sorted(candidates, key=lambda c: c ^ target)

    def random_addresses(self, count: int, rng: np.random.Generator,
                         *, unique: bool = False) -> list[int]:
        """Draw *count* uniform addresses from the space.

        With ``unique=True`` the addresses are drawn without
        replacement (requires ``count <= size``).
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if unique:
            if count > self.size:
                raise ConfigurationError(
                    f"cannot draw {count} unique addresses from a space of "
                    f"{self.size}"
                )
            chosen = rng.choice(self.size, size=count, replace=False)
            return [int(a) for a in chosen]
        return [int(a) for a in rng.integers(0, self.size, size=count)]

    def format_address(self, address: int) -> str:
        """Render an address as a zero-padded binary string."""
        self.validate(address)
        return format(address, f"0{self.bits}b")


def xor_nearest_fill(keys: Sequence[int], values: Sequence,
                     out: np.ndarray) -> None:
    """Fill ``out[t]`` with ``values[j]`` of the XOR-nearest ``keys[j]``.

    *keys* are distinct addresses in ascending order, *values* the
    entries they stand for, and *out* is a contiguous 1-D array indexed
    by every address of a ``2**bits`` space. Distinct keys sit at distinct XOR distances from
    any ``t``, so the nearest key is unique and the fill is exact.

    The fill walks the binary trie of the keys over dyadic blocks of
    the space. A block holding one key is a constant fill. Otherwise
    the block splits at the highest bit where its first and last keys
    differ, and both halves of that split hold keys, so each is filled
    recursively. Every level above the split has one empty half, and
    for a ``t`` there each key differs from ``t`` at that level's bit:
    its nearest key is the one at the same offset inside the filled
    half. So the filled sub-block is tiled over the rest of the block.
    Every entry is written once or twice, with about ``2 * len(keys)``
    Python steps, against one full-space pass per key for a running
    minimum.
    """
    if len(keys) == 0:
        raise AddressError("xor_nearest_fill() requires at least one key")
    if out.ndim != 1 or not out.flags.c_contiguous or out.size & (out.size - 1):
        raise ConfigurationError(
            "xor_nearest_fill() needs a contiguous 1-D output covering a "
            f"2**bits address space, got shape {out.shape}"
        )
    _fill_block(keys, values, out, 0, out.size, 0, len(keys))


def _fill_block(keys: Sequence[int], values: Sequence, out: np.ndarray,
                start: int, size: int, lo: int, hi: int) -> None:
    """Fill ``out[start:start + size]`` from ``keys[lo:hi]`` (all inside)."""
    if hi - lo == 1:
        out[start:start + size] = values[lo]
        return
    first = keys[lo]
    span = 1 << (first ^ keys[hi - 1]).bit_length()
    base = first & -span
    half = span >> 1
    mid = bisect_left(keys, base + half, lo, hi)
    _fill_block(keys, values, out, base, half, lo, mid)
    _fill_block(keys, values, out, base + half, half, mid, hi)
    if span < size:
        out[start:start + size].reshape(-1, span)[:] = out[base:base + span]
