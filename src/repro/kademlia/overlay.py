"""Static overlay network construction (paper §IV-B).

The paper builds a 1000-node network once, gives every node a routing
table based on the forwarding-Kademlia overlay, and keeps the tables
static for all experiments. :class:`Overlay` reproduces that: it is an
immutable-after-build value object keyed by an
:class:`OverlayConfig`, and the same config always yields the same
overlay (bit-for-bit), which is how the paper reuses one overlay
across runs "on multiple machines".

Construction follows the paper:

* node addresses are drawn uniformly at random without replacement
  from the ``2**bits`` address space;
* for each node, bucket ``i`` receives at most ``k_i`` peers chosen
  uniformly from all nodes at proximity order ``i`` (for each peer,
  half the network is a candidate for bucket 0, a quarter for
  bucket 1, ...);
* every node additionally knows its full **neighborhood** — all nodes
  at proximity order at least its neighborhood depth — uncapped, and
  neighborhood edges are symmetrized. This is Swarm's connectivity
  rule and is what lets greedy routing terminate at the true closest
  node.

Why greedy routing ends at the node ``c`` closest to a target ``t``:
take any other node ``v`` on the route, and let ``i`` be the first bit
where ``v`` and ``c`` differ. They agree above ``i`` and ``c`` is
closer to ``t``, so at bit ``i`` ``c`` agrees with ``t`` and ``v`` does
not. If ``i`` is at or beyond ``v``'s neighborhood depth, ``v`` knows
``c`` itself (the neighborhood is uncapped). Otherwise ``v``'s bucket
``i`` holds at least one peer (``c`` is a candidate, and a capped
bucket keeps ``min(k, candidates)``), and any peer there agrees with
``v`` above bit ``i`` and with ``t`` at it, so it is closer to ``t``
than ``v``. Either way ``v`` knows a strictly closer peer: greedy
forwarding never stops short of ``c``, and since every hop gets
strictly closer, it never revisits a node.

:meth:`Overlay.build` works in whole-array passes: one exact ``[n, n]``
proximity matrix gives every bucket population and neighborhood depth,
and one stable sort puts all edges in the order of the per-node loop
in ``tests/kademlia/overlay_oracle.py``. That deduplicated edge list,
in bucket order, is the built overlay: routing-table objects are made
from it only when a caller asks for one. The RNG contract is the address
draw, then one ``rng.choice(candidates, size=k_i, replace=False)`` per
bucket over capacity, node by node, bucket by bucket, candidates in
node-index order (a draw depends only on how many there are).
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .._files import TextLines, open_output
from .._validation import require, require_int, require_non_negative
from ..errors import ConfigurationError, OverlayError
from .address import AddressSpace, bit_length_array, xor_nearest_fill
from .buckets import BucketLimits, NEIGHBORHOOD_MIN, SWARM_BUCKET_SIZE
from .table import RoutingTable

__all__ = ["OverlayConfig", "Overlay"]

#: Elements per row block of :meth:`Overlay.build`'s pairwise pass.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class OverlayConfig:
    """Deterministic description of an overlay network.

    Two overlays built from equal configs are identical, including
    every routing-table entry. The defaults are the paper's simulation
    settings (1000 nodes, 16-bit addresses, Swarm's ``k = 4``).
    """

    n_nodes: int = 1000
    bits: int = 16
    limits: BucketLimits = field(default_factory=BucketLimits)
    seed: int = 42
    neighborhood_min: int = NEIGHBORHOOD_MIN
    symmetric_neighborhood: bool = True

    def __post_init__(self) -> None:
        require_int(self.n_nodes, "n_nodes")
        require_int(self.seed, "seed")
        require_int(self.neighborhood_min, "neighborhood_min")
        require_non_negative(self.seed, "seed")
        if self.n_nodes < 2:
            raise ConfigurationError(
                f"an overlay needs at least 2 nodes, got {self.n_nodes}"
            )
        space = AddressSpace(self.bits)  # validates bits
        require(space.size <= np.iinfo(np.int64).max,
                f"a {self.bits}-bit address space is too wide to draw "
                f"node addresses from; use at most 62 bits")
        if self.n_nodes > space.size:
            raise ConfigurationError(
                f"{self.n_nodes} nodes cannot fit in a {self.bits}-bit "
                f"address space of {space.size} addresses"
            )
        if self.neighborhood_min < 1:
            raise ConfigurationError(
                f"neighborhood_min must be >= 1, got {self.neighborhood_min}"
            )

    @classmethod
    def paper(cls, bucket_size: int = SWARM_BUCKET_SIZE,
              seed: int = 42) -> "OverlayConfig":
        """The paper's settings with a configurable uniform bucket size."""
        return cls(
            n_nodes=1000,
            bits=16,
            limits=BucketLimits.uniform(bucket_size),
            seed=seed,
        )

    @property
    def space(self) -> AddressSpace:
        """The overlay's address space."""
        return AddressSpace(self.bits)


class Overlay:
    """A built overlay: node addresses plus every node's known peers.

    Instances are created through :meth:`build` (or :meth:`from_tables`
    for hand-crafted topologies in tests). The structure is one edge
    list fixed at construction: per-owner bounds into an array of peer
    indices, each owner's peers in bucket order (shallowest bucket
    first, each bucket in insertion order). The fingerprint, the
    degrees, :meth:`to_dict` and the next-hop table build all read
    those arrays. :class:`~repro.kademlia.table.RoutingTable` objects
    are made lazily, one per node on its first :meth:`table` call, for
    the object-level callers (the reference simulator and the
    routers). Mutating such a table changes what those callers see but
    not the edge list: an overlay whose tables are edited keeps its
    construction-time fingerprint, degrees and serialized form.
    """

    def __init__(self, config: OverlayConfig, addresses: Sequence[int],
                 tables: Mapping[int, RoutingTable]) -> None:
        self._set_nodes(config, addresses)
        for address in self.addresses:
            if address not in tables:
                raise OverlayError(f"missing routing table for node {address}")
        self._tables = {address: tables[address] for address in self.addresses}
        self._set_edges(*self._edges_of(
            [self._tables[address].peers() for address in self.addresses]))

    @classmethod
    def _without_edges(cls, config: OverlayConfig,
                       addresses: Sequence[int]) -> "Overlay":
        """An overlay of *addresses* whose caller sets its edges."""
        overlay = cls.__new__(cls)
        overlay._set_nodes(config, addresses)
        overlay._tables = {}
        return overlay

    def _edges_of(self, rows: Sequence[Sequence[int]]
                  ) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, peers)`` of one peer-address list per node, each
        put in bucket order stably."""
        degrees = [len(row) for row in rows]
        try:
            peer = np.array([self._index_of[peer] for row in rows
                             for peer in row], dtype=np.int64)
        except KeyError as error:
            raise OverlayError(f"a routing table lists {error.args[0]}, "
                               f"which is not a node of the overlay") from None
        owner = np.repeat(np.arange(len(rows)), degrees)
        return np.cumsum([0] + degrees), _bucket_order(
            self._address_array, owner, peer, self.space.bits)

    def _set_nodes(self, config: OverlayConfig,
                   addresses: Sequence[int]) -> None:
        self.config = config
        self.space = config.space
        self.addresses: tuple[int, ...] = tuple(addresses)
        if len(set(self.addresses)) != len(self.addresses):
            raise OverlayError("overlay addresses must be unique")
        for address in self.addresses:
            self.space.validate(address)
        self._address_array = np.asarray(self.addresses, dtype=np.uint64)
        self._index_of = {
            address: index for index, address in enumerate(self.addresses)
        }
        self._storer_cache: np.ndarray | None = None
        self._fingerprint: str | None = None

    def _set_edges(self, bounds: np.ndarray, peers: np.ndarray) -> None:
        self._bounds = np.asarray(bounds, dtype=np.int64)
        self._peers = np.asarray(peers, dtype=np.int64)
        self._bounds.flags.writeable = False
        self._peers.flags.writeable = False

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, config: OverlayConfig) -> "Overlay":
        """Build the overlay deterministically from *config*."""
        space, n = config.space, config.n_nodes
        bits = space.bits
        rng = np.random.default_rng(config.seed)
        addresses = space.random_addresses(n, rng, unique=True)
        address_array = np.asarray(addresses, dtype=np.uint64)

        # Every pair's proximity (the diagonal is `bits`), each row's
        # peers ranked by it (index order within a proximity) and each
        # row's population per proximity, in row blocks: freeing
        # megabytes of temporaries would raise glibc's mmap threshold
        # and with it the peak RSS of the rest of the run.
        proximity = np.empty((n, n), dtype=np.uint8)
        ranked = np.empty((n, n), dtype=np.int32)
        counts = np.empty((n, bits + 1), dtype=np.int64)
        step = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            block = proximity[rows]
            block[:] = bits - bit_length_array(
                address_array[rows, None] ^ address_array)
            ranked[rows] = np.argsort(block, axis=1, kind="stable")
            keys = block + np.arange(len(block))[:, None] * (bits + 1)
            counts[rows] = np.bincount(
                keys.ravel(), minlength=counts[rows].size).reshape(-1, bits + 1)
        reached = counts[:, -2::-1].cumsum(axis=1) >= config.neighborhood_min
        depth = np.where(reached.any(axis=1),
                         bits - 1 - reached.argmax(axis=1), 0)

        # Edges as (table, peer, key) columns, listed so that a stable
        # sort by table and key gives the per-node loop's order. First
        # the bucket picks, keyed by bucket: a bucket over capacity in
        # rng.choice order, the others whole. The diagonal's capacity
        # of 0 keeps a node out of its own table.
        capacity = np.array(
            [config.limits.capacity(b) for b in range(bits)] + [0])
        capped = counts > capacity
        owner, bucket = np.nonzero(capped[:, :bits])
        sizes = capacity[bucket]
        ends = counts.cumsum(axis=1)[owner, bucket]
        starts = ends - counts[owner, bucket]
        # One draw per bucket over capacity: the module's RNG contract.
        chosen = [np.empty(0, dtype=ranked.dtype)]
        for row, lo, hi, size in zip(owner.tolist(), starts.tolist(),
                                     ends.tolist(), sizes.tolist()):
            chosen.append(rng.choice(ranked[row, lo:hi], size=size,
                                     replace=False))
        free_owner, free_peer = np.nonzero(
            ~np.take_along_axis(capped, proximity, axis=1))
        edges = [
            (np.repeat(owner, sizes), np.concatenate(chosen),
             np.repeat(bucket, sizes)),
            (free_owner, free_peer, proximity[free_owner, free_peer]),
        ]
        # Then the neighbourhood edges, keyed after every bucket by the
        # node whose neighbourhood holds them.
        near = proximity >= depth[:, None]
        np.fill_diagonal(near, False)
        near_owner, near_peer = np.nonzero(near)
        edges.append((near_owner, near_peer, bits + near_owner))
        if config.symmetric_neighborhood:
            edges.append((near_peer, near_owner, bits + near_owner))
        del proximity, ranked, near

        owner, peer, key = (np.concatenate(column) for column in zip(*edges))
        order = np.lexsort((key, owner))
        _, first = np.unique(owner[order] * n + peer[order], return_index=True)
        kept = order[np.sort(first)]
        overlay = cls._without_edges(config, addresses)
        overlay._set_edges(np.searchsorted(owner[kept], np.arange(n + 1)),
                           _bucket_order(address_array, owner[kept],
                                         peer[kept], bits))
        return overlay

    @classmethod
    def from_tables(cls, config: OverlayConfig,
                    tables: Mapping[int, RoutingTable]) -> "Overlay":
        """Wrap externally built tables.

        Kept as the test seam for hand-made overlays; nothing in the
        package builds tables outside :meth:`build`.
        """
        return cls(config, sorted(tables), tables)

    # ------------------------------------------------------------------
    # Accessors

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses)

    def __contains__(self, address: object) -> bool:
        return address in self._index_of

    def table(self, address: int) -> RoutingTable:
        """Routing table of the node at *address*.

        Made from the edge list on the first call for that node and
        kept, so later calls return the same (possibly mutated) object.
        The edge list itself never changes (see the class docstring).
        """
        table = self._tables.get(address)
        if table is None:
            index = self.index_of(address)
            lo, hi = self._bounds[index:index + 2].tolist()
            table = RoutingTable.from_peers(
                address, self.space, self.config.limits,
                self._address_array[self._peers[lo:hi]].tolist())
            self._tables[address] = table
        return table

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The overlay's structure as read-only ``(bounds, peers)``.

        Node ``i`` (dense index) knows the peers at dense indices
        ``peers[bounds[i]:bounds[i + 1]]``, in bucket order: the order
        of ``table(addresses[i]).peers()`` at construction.
        """
        return self._bounds, self._peers

    def degrees(self) -> np.ndarray:
        """Number of known peers per node (dense-index order)."""
        return np.diff(self._bounds)

    def index_of(self, address: int) -> int:
        """Dense index (0..n-1) of a node address."""
        try:
            return self._index_of[address]
        except KeyError:
            raise OverlayError(f"no node at address {address}") from None

    def address_array(self) -> np.ndarray:
        """All node addresses as a ``uint64`` array (dense-index order)."""
        return self._address_array

    def fingerprint(self) -> str:
        """Content address of this topology (stable across processes).

        A SHA-256 digest over every :class:`OverlayConfig` parameter
        that determines construction (node count, address bits, bucket
        capacities, build seed, neighborhood rule) *and* the realized
        structure itself — the node addresses and every routing-table
        edge. Two overlays with equal fingerprints route identically,
        which is what lets the :mod:`repro.perf` table cache hand one
        next-hop table to every sweep worker that needs this topology;
        hashing the edges (not just the config) keeps hand-crafted
        :meth:`from_tables` overlays from colliding with built ones.
        """
        if self._fingerprint is None:
            config = self.config
            digest = hashlib.sha256()
            header = json.dumps(
                {
                    "n_nodes": config.n_nodes,
                    "bits": config.bits,
                    "bucket_default": config.limits.default,
                    "bucket_overrides": sorted(
                        (int(k), int(v))
                        for k, v in config.limits.overrides.items()
                    ),
                    "seed": config.seed,
                    "neighborhood_min": config.neighborhood_min,
                    "symmetric_neighborhood": config.symmetric_neighborhood,
                },
                sort_keys=True,
            )
            digest.update(header.encode())
            digest.update(self._address_array.tobytes())
            # Every node's peer addresses in ascending order, node by node.
            owners = np.repeat(np.arange(len(self)), self.degrees())
            peers = self._address_array[self._peers]
            digest.update(peers[np.lexsort((peers, owners))].tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def closest_node(self, target: int) -> int:
        """The node address XOR-closest to *target* (the storer).

        This is global knowledge: the simulator uses it to place chunks
        ("only the node closest to a data chunk's address is storing
        that chunk", paper §IV-B).
        """
        self.space.validate(target, name="target")
        index = int(np.argmin(self._address_array ^ np.uint64(target)))
        return int(self._address_array[index])

    def storer_table(self) -> np.ndarray:
        """Precomputed storer (dense node index) for every address.

        A ``uint32`` array of length ``2**bits`` mapping each chunk
        address to the dense index of its closest node: one
        :func:`~repro.kademlia.address.xor_nearest_fill` with every
        node address as a key and its dense index as the value.
        Computed once and cached.
        """
        if self._storer_cache is None:
            order = np.argsort(self._address_array)
            storers = np.empty(self.space.size, dtype=np.uint32)
            xor_nearest_fill(self._address_array[order].tolist(),
                             order.tolist(), storers)
            self._storer_cache = storers
        return self._storer_cache

    # ------------------------------------------------------------------
    # Persistence (multi-machine result merging support)

    def to_dict(self) -> dict:
        """Serialize the overlay structure to plain data.

        Each node's peers are listed in bucket order, the order
        :meth:`from_dict` re-adds them in.
        """
        bounds = self._bounds.tolist()
        peers = self._address_array[self._peers].tolist()
        return {
            "config": {
                "n_nodes": self.config.n_nodes,
                "bits": self.config.bits,
                "seed": self.config.seed,
                "neighborhood_min": self.config.neighborhood_min,
                "symmetric_neighborhood": self.config.symmetric_neighborhood,
                "limits": {
                    "default": self.config.limits.default,
                    "overrides": {
                        str(k): v for k, v in self.config.limits.overrides.items()
                    },
                },
            },
            "addresses": list(self.addresses),
            "tables": {
                str(address): peers[lo:hi]
                for address, lo, hi in zip(self.addresses, bounds, bounds[1:])
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Overlay":
        """Rebuild an overlay serialized with :meth:`to_dict`.

        Strict: addresses and peers must be JSON ints (never bools,
        floats or strings), each table is keyed by the decimal string
        of a node's address, and every peer must be another node of
        the overlay, listed once. Anything else raises
        :class:`~repro.errors.OverlayError` naming the offending key.
        Peers are put in bucket order stably, so every bucket keeps
        the serialized order of its peers.
        """
        if not isinstance(data, Mapping):
            raise OverlayError(
                f"overlay data must be an object, got "
                f"{reprlib.repr(data)}"
            )
        config = _config_from_dict(_field(data, "config", Mapping))
        space = config.space

        addresses = _field(data, "addresses", list)
        nodes: set[int] = set()
        for index, address in enumerate(addresses):
            key = f"addresses[{index}]"
            _address(address, key, space)
            if address in nodes:
                raise OverlayError(f"overlay {key!r} repeats {address}")
            nodes.add(address)
        if len(addresses) != config.n_nodes:
            raise OverlayError(
                f"overlay 'addresses' lists {len(addresses)} nodes but "
                f"'config.n_nodes' is {config.n_nodes}"
            )

        raw_tables = _field(data, "tables", Mapping)
        tables: dict[int, list[int]] = {}
        for raw_owner, peers in raw_tables.items():
            owner = _owner(raw_owner, nodes)
            key = f"tables[{raw_owner!r}]"
            if type(peers) is not list:
                raise OverlayError(
                    f"overlay {key!r} must be a list of int addresses, "
                    f"got {reprlib.repr(peers)}"
                )
            for index, peer in enumerate(peers):
                if (type(peer) is not int or peer not in nodes
                        or peer == owner):
                    peer_key = f"{key}[{index}]"
                    _address(peer, peer_key, space)
                    raise OverlayError(
                        f"overlay {peer_key!r}: {peer} is not another "
                        f"node of the overlay"
                    )
            if len(set(peers)) != len(peers):
                seen: set[int] = set()
                index = next(i for i, peer in enumerate(peers)
                             if peer in seen or seen.add(peer))
                peer_key = f"{key}[{index}]"
                raise OverlayError(
                    f"overlay {peer_key!r} repeats peer {peers[index]}"
                )
            tables[owner] = peers
        for address in addresses:
            if address not in tables:
                raise OverlayError(
                    f"overlay 'tables' has no routing table for node "
                    f"{address}"
                )
        overlay = cls._without_edges(config, addresses)
        overlay._set_edges(*overlay._edges_of(
            [tables[address] for address in addresses]))
        return overlay

    def save(self, path: str | Path) -> None:
        """Write the overlay to a JSON file."""
        with open_output(path, "overlay") as handle:
            handle.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Overlay":
        """Read an overlay from a JSON file written by :meth:`save`.

        A file that is not JSON raises :class:`~repro.errors.
        OverlayError` naming the path; a missing or non-UTF-8 file
        raises :class:`~repro.errors.InputError`.
        """
        with TextLines(path, "overlay") as lines:
            text = "".join(lines)
        try:
            data = json.loads(text)
        except ValueError as error:
            raise OverlayError(f"{path}: not an overlay JSON file "
                               f"({error})") from None
        return cls.from_dict(data)


def _bucket_order(addresses: np.ndarray, owner: np.ndarray, peer: np.ndarray,
                  bits: int) -> np.ndarray:
    """*peer* (grouped by ascending *owner*) stably sorted into bucket
    order within each owner: the order of ``RoutingTable.peers()``."""
    bucket = bits - bit_length_array(addresses[owner] ^ addresses[peer])
    return peer[np.lexsort((bucket, owner))]


def _field(data: Mapping, key: str, kind: type, where: str = ""):
    """``data[key]`` if present and a *kind*; ints must be true ints."""
    name = f"{where}{key}"
    if key not in data:
        raise OverlayError(f"overlay data is missing {name!r}")
    value = data[key]
    valid = (type(value) is int if kind is int
             else type(value) is bool if kind is bool
             else isinstance(value, kind))
    if not valid:
        raise OverlayError(
            f"overlay {name!r} must be a {kind.__name__}, got "
            f"{reprlib.repr(value)}"
        )
    return value


def _config_from_dict(raw: Mapping) -> OverlayConfig:
    """The :class:`OverlayConfig` of :meth:`Overlay.to_dict` data."""
    raw_limits = _field(raw, "limits", Mapping, "config.")
    raw_overrides = _field(raw_limits, "overrides", Mapping,
                           "config.limits.")
    overrides = {}
    for raw_index, capacity in raw_overrides.items():
        index = _decimal_key(raw_index)
        if index is None or type(capacity) is not int:
            raise OverlayError(
                f"overlay 'config.limits.overrides[{raw_index!r}]' must "
                f"map a bucket index to an int capacity, got "
                f"{reprlib.repr(capacity)}"
            )
        overrides[index] = capacity
    try:
        return OverlayConfig(
            n_nodes=_field(raw, "n_nodes", int, "config."),
            bits=_field(raw, "bits", int, "config."),
            limits=BucketLimits(
                default=_field(raw_limits, "default", int,
                               "config.limits."),
                overrides=overrides,
            ),
            seed=_field(raw, "seed", int, "config."),
            neighborhood_min=_field(raw, "neighborhood_min", int,
                                    "config."),
            symmetric_neighborhood=_field(raw, "symmetric_neighborhood",
                                          bool, "config."),
        )
    except ConfigurationError as error:
        raise OverlayError(f"overlay 'config' is invalid: {error}") from None


def _address(value, key: str, space: AddressSpace) -> None:
    """Refuse anything but an int address inside *space*."""
    if type(value) is not int:
        raise OverlayError(
            f"overlay {key!r} must be an int address, got "
            f"{reprlib.repr(value)}"
        )
    if not 0 <= value < space.size:
        raise OverlayError(
            f"overlay {key!r}: {value} is outside the {space.bits}-bit "
            f"address space"
        )


def _decimal_key(raw) -> int | None:
    """The int a canonical decimal-string JSON key names, else None."""
    if (type(raw) is str and raw.isascii() and raw.isdigit()
            and str(int(raw)) == raw):
        return int(raw)
    return None


def _owner(raw_owner, nodes: set[int]) -> int:
    """The node address a ``tables`` key names (its decimal string)."""
    owner = _decimal_key(raw_owner)
    if owner is None or owner not in nodes:
        raise OverlayError(
            f"overlay 'tables[{raw_owner!r}]': the key is not a node's "
            f"decimal address"
        )
    return owner
