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
  node (see DESIGN.md §2 for the convergence argument).
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .._validation import require_int
from ..errors import ConfigurationError, OverlayError
from .address import AddressSpace, proximity_array, xor_nearest_fill
from .buckets import BucketLimits, NEIGHBORHOOD_MIN, SWARM_BUCKET_SIZE
from .table import RoutingTable

__all__ = ["OverlayConfig", "Overlay"]


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
        if self.n_nodes < 2:
            raise ConfigurationError(
                f"an overlay needs at least 2 nodes, got {self.n_nodes}"
            )
        space = AddressSpace(self.bits)  # validates bits
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
    """A built overlay: node addresses plus one routing table per node.

    Instances are created through :meth:`build` (or :meth:`from_tables`
    for hand-crafted topologies in tests). After construction the
    overlay should be treated as read-only; the routing tables are
    shared with routers and simulators.
    """

    def __init__(self, config: OverlayConfig, addresses: Sequence[int],
                 tables: Mapping[int, RoutingTable]) -> None:
        self.config = config
        self.space = config.space
        self.addresses: tuple[int, ...] = tuple(addresses)
        if len(set(self.addresses)) != len(self.addresses):
            raise OverlayError("overlay addresses must be unique")
        for address in self.addresses:
            self.space.validate(address)
            if address not in tables:
                raise OverlayError(f"missing routing table for node {address}")
        self._tables = dict(tables)
        self._address_array = np.asarray(self.addresses, dtype=np.uint64)
        self._index_of = {
            address: index for index, address in enumerate(self.addresses)
        }
        self._storer_cache: np.ndarray | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, config: OverlayConfig) -> "Overlay":
        """Build the overlay deterministically from *config*."""
        space = config.space
        rng = np.random.default_rng(config.seed)
        addresses = space.random_addresses(config.n_nodes, rng, unique=True)
        address_array = np.asarray(addresses, dtype=np.uint64)

        tables: dict[int, RoutingTable] = {}
        for address in addresses:
            tables[address] = cls._build_table(
                address, address_array, space, config, rng
            )

        cls._connect_neighborhoods(addresses, tables, config)
        return cls(config, addresses, tables)

    @staticmethod
    def _build_table(owner: int, address_array: np.ndarray,
                     space: AddressSpace, config: OverlayConfig,
                     rng: np.random.Generator) -> RoutingTable:
        """Fill one node's buckets with randomly chosen candidates."""
        table = RoutingTable(owner, space, config.limits)
        others = address_array[address_array != np.uint64(owner)]
        proximities = proximity_array(owner, others, space.bits)
        for bucket_index in range(space.bits):
            candidates = others[proximities == bucket_index]
            if candidates.size == 0:
                continue
            capacity = config.limits.capacity(bucket_index)
            if candidates.size > capacity:
                chosen = rng.choice(candidates, size=capacity, replace=False)
            else:
                chosen = candidates
            for peer in chosen:
                table.add(int(peer))
        return table

    @staticmethod
    def _connect_neighborhoods(addresses: Sequence[int],
                               tables: dict[int, RoutingTable],
                               config: OverlayConfig) -> None:
        """Give every node its full, symmetric neighborhood.

        For each node, every other node at proximity order >= the
        node's (population-wide) neighborhood depth is added uncapped.
        With ``symmetric_neighborhood`` the edge is mirrored, modelling
        Swarm's mutual nearest-neighbor connectivity.
        """
        space = config.space
        address_array = np.asarray(addresses, dtype=np.uint64)
        for owner in addresses:
            others = address_array[address_array != np.uint64(owner)]
            proximities = proximity_array(owner, others, space.bits)
            depth = Overlay._population_depth(
                proximities, space.bits, config.neighborhood_min
            )
            neighbors = others[proximities >= depth]
            for neighbor in neighbors:
                tables[owner].add_unbounded(int(neighbor))
                if config.symmetric_neighborhood:
                    tables[int(neighbor)].add_unbounded(owner)

    @staticmethod
    def _population_depth(proximities: np.ndarray, bits: int,
                          minimum: int) -> int:
        """Neighborhood depth derived from the true node population."""
        cumulative = 0
        for depth in range(bits - 1, -1, -1):
            cumulative += int(np.count_nonzero(proximities == depth))
            if cumulative >= minimum:
                return depth
        return 0

    @classmethod
    def from_tables(cls, config: OverlayConfig,
                    tables: Mapping[int, RoutingTable]) -> "Overlay":
        """Wrap externally built tables (used by tests)."""
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
        """Routing table of the node at *address*."""
        try:
            return self._tables[address]
        except KeyError:
            raise OverlayError(f"no node at address {address}") from None

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
            for address in self.addresses:
                peers = np.asarray(
                    sorted(self._tables[address].peers()), dtype=np.uint64
                )
                digest.update(peers.tobytes())
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

    def degree_histogram(self) -> dict[int, int]:
        """Map node address -> number of known peers."""
        return {address: len(self._tables[address]) for address in self.addresses}

    # ------------------------------------------------------------------
    # Persistence (multi-machine result merging support)

    def to_dict(self) -> dict:
        """Serialize the overlay structure to plain data."""
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
                str(address): self._tables[address].peers()
                for address in self.addresses
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
        Peers are re-added in their serialized order, so every bucket
        keeps its insertion order.
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
        tables: dict[int, RoutingTable] = {}
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
            tables[owner] = RoutingTable.from_peers(
                owner, space, config.limits, peers
            )
        for address in addresses:
            if address not in tables:
                raise OverlayError(
                    f"overlay 'tables' has no routing table for node "
                    f"{address}"
                )
        return cls(config, addresses, tables)

    def save(self, path: str | Path) -> None:
        """Write the overlay to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Overlay":
        """Read an overlay from a JSON file written by :meth:`save`.

        A file that is not JSON raises :class:`~repro.errors.
        OverlayError` naming the path; a missing file raises
        :class:`OSError`.
        """
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as error:
            raise OverlayError(f"{path}: not an overlay JSON file "
                               f"({error})") from None
        return cls.from_dict(data)


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
