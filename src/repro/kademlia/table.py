"""Per-node routing tables for forwarding Kademlia.

A :class:`RoutingTable` is owned by one overlay address and organizes
every peer the node knows into k-buckets by proximity order (paper
§III-A, Fig. 3). It answers the single question routing needs: *which
known peer is XOR-closest to a target address?*

The table also computes the node's **neighborhood depth**: the
shallowest proximity order ``d`` such that the node knows at least
:data:`~repro.kademlia.buckets.NEIGHBORHOOD_MIN` peers at proximity
``>= d``. Peers at or beyond the depth form the neighborhood; overlay
builders keep the neighborhood uncapped and symmetric so greedy
routing converges to the globally closest node (DESIGN.md §2).

Besides the per-node object model, this module owns the vectorized
**incremental storer-table maintenance** the epoch-driven scenario
layer runs on: :func:`alive_storer_table` builds the
closest-*live*-node table from scratch, :func:`patch_storer_table`
produces the identical table from the previous epoch's by touching
only the addresses a leave/join delta actually affects, and
:func:`chain_fingerprint` derives the content address of the patched
table (``parent_fp + delta``) that lets epoch tables hit the
:class:`~repro.perf.table_cache.EpochTableCache` instead of being
recomputed.

The same machinery extends to the dense **terminal-coded routing
matrix** itself (:class:`~repro.backends.fast.NextHopTable`'s
``coded_transposed``): :func:`coded_arrive_patch` computes, for one
epoch's storer table, the sparse set of matrix entries whose coded
value must change so the *static* banded hop kernel reproduces the
epoch's re-homed arrivals — packaged as a :class:`CodedPatch` that
applies in place and reverts from its undo log (indices + prior
values) in O(patch), never copying the ~131 MB paper-scale matrix.
Dead next hops need no matrix entries at all: :func:`dead_value_lut`
builds the per-epoch coded-value table the kernel consults to shunt
them onto the live fallback band sparsely at gather time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError, OverlayError
from .address import AddressSpace
from .buckets import BucketLimits, KBucket, NEIGHBORHOOD_MIN

__all__ = [
    "RoutingTable",
    "alive_storer_table",
    "patch_storer_table",
    "chain_fingerprint",
    "CodedPatch",
    "coded_arrive_patch",
    "dead_value_lut",
]

#: Element budget for the chunked distance scans below (bounds the
#: ``chunk x n_alive``/``chunk x n_joins`` uint64 temporaries).
_SCAN_BUDGET = 1 << 22


def _scatter_closest_live(out: np.ndarray, rows: np.ndarray,
                          addresses: np.ndarray,
                          alive: np.ndarray) -> None:
    """``out[rows] = closest live node to each row's address``.

    The one budget-chunked XOR-argmin scan both the full rebuild and
    the delta patch resolve storers through — keeping them sharing
    one implementation is what makes "patch equals rebuild, exactly"
    a structural property rather than a coincidence of two loops.
    """
    alive_idx = np.flatnonzero(alive).astype(np.int64)
    if alive_idx.size == 0:
        raise ConfigurationError(
            "cannot resolve storers with every node offline"
        )
    live_addresses = addresses[alive_idx]
    row_addresses = rows.astype(np.uint64)
    chunk = max(1, _SCAN_BUDGET // max(1, alive_idx.size))
    for start in range(0, rows.size, chunk):
        block = row_addresses[start:start + chunk]
        distances = block[:, None] ^ live_addresses[None, :]
        out[rows[start:start + chunk]] = (
            alive_idx[np.argmin(distances, axis=1)]
        )


def alive_storer_table(addresses: np.ndarray, alive: np.ndarray,
                       dtype: np.dtype, space_size: int) -> np.ndarray:
    """Closest-live-node index for every address (full rebuild).

    *addresses* are the dense-index node addresses (``uint64``),
    *alive* the boolean liveness mask. XOR distances between distinct
    addresses are distinct, so the result is unique — no tie-break
    rule to preserve. This is the from-scratch reference the delta
    patch below must (and is tested to) reproduce exactly.
    """
    out = np.empty(space_size, dtype=dtype)
    _scatter_closest_live(
        out, np.arange(space_size, dtype=np.int64), addresses, alive
    )
    return out


def patch_storer_table(parent: np.ndarray, addresses: np.ndarray,
                       alive: np.ndarray,
                       leaves: np.ndarray | Sequence[int],
                       joins: np.ndarray | Sequence[int]) -> np.ndarray:
    """The storer table after a leave/join delta, as a delta patch.

    *parent* must be the table for the alive set *before* the delta;
    *alive* is the mask *after* it. Only two slices of the address
    space are touched:

    * addresses whose parent storer left — re-resolved over the new
      live population (which already includes the joiners);
    * addresses a joiner is now strictly closer to than their current
      storer — overwritten with the closest joiner.

    The join pass cannot disturb the re-resolved addresses (their
    entry is already optimal over the new population), so the result
    equals :func:`alive_storer_table` on the new mask exactly, at a
    cost proportional to the delta instead of the population.
    """
    leaves = np.asarray(leaves, dtype=np.int64)
    joins = np.asarray(joins, dtype=np.int64)
    out = parent.copy()
    space_size = parent.size

    if leaves.size:
        affected = np.flatnonzero(np.isin(parent, leaves))
        if affected.size:
            _scatter_closest_live(out, affected, addresses, alive)

    if joins.size:
        join_addresses = addresses[joins]
        targets = np.arange(space_size, dtype=np.uint64)
        current_distance = targets ^ addresses[out.astype(np.int64)]
        chunk = max(1, _SCAN_BUDGET // max(1, joins.size))
        for start in range(0, space_size, chunk):
            block = targets[start:start + chunk]
            distances = block[:, None] ^ join_addresses[None, :]
            best = np.argmin(distances, axis=1)
            best_distance = distances[np.arange(block.size), best]
            improved = best_distance < current_distance[start:start + chunk]
            if improved.any():
                rows = start + np.flatnonzero(improved)
                out[rows] = joins[best[improved]]
    return out


def chain_fingerprint(parent: str,
                      leaves: np.ndarray | Sequence[int],
                      joins: np.ndarray | Sequence[int]) -> str:
    """Content address of ``parent`` patched by a leave/join delta.

    Chaining means an epoch table's identity encodes its entire delta
    history from the base table — replayed schedules (sweep replicas,
    resumed runs) re-derive the same fingerprints and hit the epoch
    cache, while any divergence in the path yields a fresh one.
    Deltas are canonicalized to sorted ``uint32``.
    """
    digest = hashlib.sha256()
    digest.update(parent.encode("ascii"))
    digest.update(b"L")
    digest.update(np.sort(np.asarray(leaves, dtype=np.uint32)).tobytes())
    digest.update(b"J")
    digest.update(np.sort(np.asarray(joins, dtype=np.uint32)).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CodedPatch:
    """A sparse in-place edit of the terminal-coded routing matrix.

    ``indices`` are flat positions into the C-contiguous
    ``[target, node]`` coded matrix (the narrowest signed dtype that
    spans it) and ``prior`` the pristine entries at those positions —
    the undo log that makes :meth:`revert` restore the matrix
    bit-exactly in O(patch) instead of re-copying or rebuilding it.
    Every patched entry is an **arrive-band promotion** (pristine
    forward value ``s`` becomes ``n + s``), so the epoch values are
    derived as ``prior + n_nodes`` rather than stored: at paper-scale
    churn a patch runs to ~10\\ :sup:`5` entries per epoch, and the
    epoch cache budgets many of them (:attr:`nbytes`) — the undo log
    alone halves what a values+prior representation would hold
    resident. Patches are *absolute* (always expressed against the
    pristine matrix), so one revert + one apply moves the matrix
    between any two epochs.
    """

    indices: np.ndarray
    prior: np.ndarray
    n_nodes: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.prior):
            raise ConfigurationError(
                "coded patch arrays must have equal lengths, got "
                f"{len(self.indices)}/{len(self.prior)}"
            )

    @property
    def values(self) -> np.ndarray:
        """The epoch's coded entries (the promotions of ``prior``)."""
        return self.prior + self.prior.dtype.type(self.n_nodes)

    @property
    def nbytes(self) -> int:
        """Memory footprint (how the epoch cache budgets patches)."""
        return int(self.indices.nbytes + self.prior.nbytes)

    def __len__(self) -> int:
        return len(self.indices)

    def apply(self, flat_coded: np.ndarray) -> None:
        """Write the epoch's coded values into the flat matrix."""
        flat_coded[self.indices] = self.values

    def revert(self, flat_coded: np.ndarray) -> None:
        """Restore the pristine coded values from the undo log."""
        flat_coded[self.indices] = self.prior


def coded_arrive_patch(coded: np.ndarray, base_storers: np.ndarray,
                       storers: np.ndarray) -> CodedPatch:
    """The sparse coded-matrix patch for one epoch's storer table.

    *coded* is the **pristine** terminal-coded ``[target, node]``
    matrix, *base_storers* the static storer table it was coded
    against, and *storers* the epoch's (re-homed) storer table. The
    only entries whose coded value must change for the static banded
    kernel to reproduce the decoded dynamic mode are the **arrive-band
    promotions**: in every row ``t`` whose storer moved (its static
    storer died), forward-band entries equal to the new storer
    ``storers[t]`` must read ``n + storers[t]`` so routing terminates
    there as an arrival. Dead next hops and dead-storer stalls are
    *not* patched — the kernel's :func:`dead_value_lut` fixup re-codes
    those sparsely at gather time, which keeps this patch proportional
    to the rows whose storer actually moved (the new storer's forward
    in-degree per such row, ~25 entries at paper scale) rather than to
    every entry pointing at a dead node (~65 000 per dead node).
    """
    n_nodes = coded.shape[1]
    dtype = coded.dtype
    index_dtype = (np.int32 if coded.size <= np.iinfo(np.int32).max
                   else np.int64)
    rows = np.flatnonzero(storers != base_storers)
    if rows.size == 0:
        return CodedPatch(np.empty(0, dtype=index_dtype),
                          np.empty(0, dtype=dtype), n_nodes)
    # Budget-chunked row scan: gather the affected pristine rows and
    # compare against each row's new storer. Forward-band entries are
    # plain node indices, so one equality against storers[t] finds
    # exactly the entries to promote (arrive/fallback bands are >= n
    # and can never compare equal).
    chunk = max(1, _SCAN_BUDGET // max(1, n_nodes))
    index_parts: list[np.ndarray] = []
    prior_parts: list[np.ndarray] = []
    for start in range(0, rows.size, chunk):
        block_rows = rows[start:start + chunk]
        block = coded[block_rows]
        new_storers = storers[block_rows]
        hit_row, hit_col = np.nonzero(block == new_storers[:, None])
        if hit_row.size == 0:
            continue
        index_parts.append(
            (block_rows[hit_row] * np.int64(n_nodes)
             + hit_col).astype(index_dtype)
        )
        # The pristine value at a promoted entry is the new storer's
        # plain index itself — that equality is what found it.
        prior_parts.append(new_storers[hit_row].astype(dtype))
    if not index_parts:
        return CodedPatch(np.empty(0, dtype=index_dtype),
                          np.empty(0, dtype=dtype), n_nodes)
    return CodedPatch(np.concatenate(index_parts),
                      np.concatenate(prior_parts), n_nodes)


def dead_value_lut(alive: np.ndarray) -> np.ndarray:
    """Coded-value deadness table for one epoch's alive mask.

    ``lut[v]`` is ``True`` when the node a terminal-coded value ``v``
    decodes to — the forward target for ``v < n``, the arriving storer
    for ``n <= v < 2n``, the fallback storer for ``2n <= v < 3n`` — is
    offline this epoch. The static banded kernel gathers it per hop
    (3n bools, L1-resident) and re-codes the flagged chunks onto the
    live fallback band in one sparse pass, which is what lets churn
    epochs skip the decoded per-chunk storer/alive columns entirely.
    """
    return np.tile(~np.asarray(alive, dtype=bool), 3)


class RoutingTable:
    """All peers known to one node, organized into k-buckets.

    Parameters
    ----------
    owner:
        Overlay address of the node owning this table.
    space:
        The overlay address space (defines bit width and metrics).
    limits:
        Per-bucket capacities; defaults to Swarm's ``k = 4``.

    Notes
    -----
    The table caches a numpy array of peer addresses for the vectorized
    nearest-peer query; the cache is invalidated on mutation. Tables in
    the paper's experiments are built once and then frozen, so the
    cache is almost always warm.
    """

    def __init__(self, owner: int, space: AddressSpace,
                 limits: BucketLimits | None = None) -> None:
        self.space = space
        self.owner = space.validate(owner, name="owner")
        self.limits = limits if limits is not None else BucketLimits()
        self._buckets: list[KBucket] = [
            KBucket(i, self.limits.capacity(i)) for i in range(space.bits)
        ]
        self._peer_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    def __contains__(self, address: object) -> bool:
        if not isinstance(address, int) or isinstance(address, bool):
            return False
        if address == self.owner or address not in self.space:
            return False
        return address in self._buckets[self.space.proximity(self.owner, address)]

    def __iter__(self) -> Iterator[int]:
        for bucket in self._buckets:
            yield from bucket

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = {
            bucket.index: len(bucket) for bucket in self._buckets if len(bucket)
        }
        return (
            f"RoutingTable(owner={self.owner}, peers={len(self)}, "
            f"buckets={populated})"
        )

    @property
    def buckets(self) -> tuple[KBucket, ...]:
        """The table's buckets, indexed by proximity order."""
        return tuple(self._buckets)

    def bucket(self, index: int) -> KBucket:
        """Return the bucket at proximity order *index*."""
        if not 0 <= index < self.space.bits:
            raise ConfigurationError(
                f"bucket index must be in [0, {self.space.bits}), got {index}"
            )
        return self._buckets[index]

    def bucket_of(self, address: int) -> KBucket:
        """Return the bucket *address* belongs to (whether present or not)."""
        return self._buckets[self.space.bucket_index(self.owner, address)]

    def peers(self) -> list[int]:
        """Every known peer address, shallowest bucket first."""
        return list(self)

    def peer_array(self) -> np.ndarray:
        """Known peers as a cached ``uint64`` numpy array."""
        if self._peer_cache is None:
            self._peer_cache = np.fromiter(
                self, dtype=np.uint64, count=len(self)
            )
        return self._peer_cache

    @classmethod
    def from_peers(cls, owner: int, space: AddressSpace,
                   limits: BucketLimits | None,
                   peers: Iterable[int]) -> "RoutingTable":
        """A table holding *peers*, each appended to its bucket in order.

        Restores a serialized table with its exact bucket order.
        Capacities are not enforced (neighborhood peers are uncapped)
        and the peers are trusted: the caller has checked that each
        is a distinct address of *space* other than *owner*.
        """
        table = cls(owner, space, limits)
        buckets = table._buckets
        for peer in peers:
            buckets[space.bits - (owner ^ peer).bit_length()].add_uncapped(
                peer
            )
        return table

    # ------------------------------------------------------------------
    # Mutation

    def add(self, address: int) -> bool:
        """Learn about a peer; return ``True`` if it was stored.

        A peer is rejected (``False``) when its bucket is full or it is
        already known. Adding the owner's own address raises
        :class:`~repro.errors.AddressError` via ``bucket_index``.
        """
        self.space.validate(address)
        bucket = self.bucket_of(address)
        added = bucket.add(address)
        if added:
            self._peer_cache = None
        return added

    def add_unbounded(self, address: int) -> bool:
        """Learn about a peer ignoring its bucket's capacity.

        Overlay builders use this for neighborhood peers, which Swarm
        keeps uncapped (paper §III-A: the last bucket "includes all
        nodes" beyond the depth).
        """
        self.space.validate(address)
        added = self.bucket_of(address).add_uncapped(address)
        if added:
            self._peer_cache = None
        return added

    def remove(self, address: int) -> None:
        """Forget a peer; raise :class:`OverlayError` if unknown."""
        self.bucket_of(address).remove(address)
        self._peer_cache = None

    def extend(self, addresses: Iterable[int]) -> int:
        """Add peers until buckets fill; return how many were stored."""
        return sum(1 for address in addresses if self.add(address))

    # ------------------------------------------------------------------
    # Queries used by routing

    def closest_peer(self, target: int) -> int:
        """Return the known peer XOR-closest to *target*.

        Raises :class:`OverlayError` when the table is empty. The owner
        itself is never returned; the router compares the result with
        the owner's own distance to decide whether to stop.
        """
        peers = self.peer_array()
        if peers.size == 0:
            raise OverlayError(f"routing table of {self.owner} is empty")
        index = int(np.argmin(peers ^ np.uint64(self.space.validate(target))))
        return int(peers[index])

    def closest_peers(self, target: int, count: int) -> list[int]:
        """Return up to *count* known peers sorted by distance to *target*."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        return self.space.sort_by_distance(target, self.peers())[:count]

    def neighborhood_depth(self, minimum: int = NEIGHBORHOOD_MIN) -> int:
        """Shallowest proximity order with >= *minimum* peers at or beyond it.

        Returns 0 when the node knows fewer than *minimum* peers in
        total (the whole network is its neighborhood). This matches the
        paper's definition: the neighborhood is "defined by the
        proximity at which the node cannot connect to at least four
        other nodes".
        """
        if minimum < 1:
            raise ConfigurationError(f"minimum must be >= 1, got {minimum}")
        cumulative = 0
        # Walk from the deepest bucket toward bucket 0, accumulating
        # the population at proximity >= depth.
        for depth in range(self.space.bits - 1, -1, -1):
            cumulative += len(self._buckets[depth])
            if cumulative >= minimum:
                return depth
        return 0

    def neighborhood(self, minimum: int = NEIGHBORHOOD_MIN) -> list[int]:
        """Peers at proximity order >= :meth:`neighborhood_depth`."""
        depth = self.neighborhood_depth(minimum)
        members: list[int] = []
        for bucket in self._buckets[depth:]:
            members.extend(bucket)
        return members

    def bucket_histogram(self) -> dict[int, int]:
        """Map of bucket index to population, for diagnostics."""
        return {
            bucket.index: len(bucket)
            for bucket in self._buckets
            if len(bucket) > 0
        }
