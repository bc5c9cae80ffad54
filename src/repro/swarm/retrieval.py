"""Chunk retrieval over forwarding Kademlia (paper §III-A, Fig. 1).

The retrieval protocol walks the request hop by hop: each node first
checks its own store and forwarding cache; on a miss it forwards to
the known peer XOR-closest to the chunk. The chunk then flows back
along the same path, and — when caching is enabled — every node on the
return path admits the chunk into its cache, which is how popular
content gets served closer to requesters (paper §V).

This is the step-wise sibling of :class:`~repro.kademlia.routing.Router`:
the Router resolves the geometric path only, while
:class:`RetrievalProtocol` additionally honours stores and caches, so
a path can terminate early at any node holding the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import RoutingError
from ..kademlia.overlay import Overlay
from ..kademlia.routing import Route, Router
from .node import SwarmNode

__all__ = ["Retrieval", "RetrievalStats", "RetrievalProtocol", "ServiceGate"]

#: Decides whether *provider* will serve *consumer* a given chunk.
#: Returning False models SWAP's disconnect threshold: "If the balance
#: reaches a certain limit, nodes stop serving each other's requests
#: unless debt is settled" (paper §III-B).
ServiceGate = Callable[[int, int, int], bool]


@dataclass(frozen=True)
class Retrieval:
    """Outcome of one chunk retrieval.

    ``route`` is the path actually travelled (possibly truncated by a
    cache hit); ``source`` records what served the chunk: ``'local'``
    (originator already had it), ``'store'`` (the designated storer),
    or ``'cache'`` (a forwarding cache along the way).
    """

    route: Route
    source: str

@dataclass
class RetrievalStats:
    """Aggregate retrieval telemetry."""

    retrievals: int = 0
    local_hits: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    total_hops: int = 0
    hops_saved_by_cache: int = 0
    refusals: int = 0

    def record(self, retrieval: Retrieval, full_hops: int) -> None:
        """Fold one retrieval in; *full_hops* is the cache-less path length."""
        self.retrievals += 1
        self.total_hops += retrieval.route.hops
        if retrieval.source == "local":
            self.local_hits += 1
        elif retrieval.source == "cache":
            self.cache_hits += 1
            self.hops_saved_by_cache += full_hops - retrieval.route.hops
        else:
            self.store_hits += 1

    @property
    def mean_hops(self) -> float:
        """Average hops per retrieval."""
        if self.retrievals == 0:
            return 0.0
        return self.total_hops / self.retrievals


class RetrievalProtocol:
    """Hop-by-hop chunk retrieval with store/cache awareness.

    Parameters
    ----------
    overlay:
        The overlay whose tables drive forwarding.
    nodes:
        Mapping of node address to :class:`SwarmNode`.
    cache_on_path:
        When True, every node that forwarded a chunk admits it into
        its cache as the data flows back (the Swarm behaviour); the
        originator's own cache is not populated — it keeps the chunk
        by virtue of having downloaded it.
    implicit_storage:
        When True, the designated storer is assumed to hold every
        chunk without an explicit upload. This is the paper's §IV-B
        abstraction ("we assume that only the node closest to a data
        chunk's address is storing that chunk"); with False, a miss at
        the storer raises.
    service_gate:
        Optional ``(provider, consumer, chunk) -> bool`` implementing
        SWAP's disconnect rule. A gated peer is skipped in favour of
        the next-closest willing peer; if every usable peer (and the
        storer itself) refuses, the retrieval raises — an indebted
        consumer is cut off exactly as §III-B describes.
    strict:
        Raise instead of using the neighborhood hand-off on a greedy
        stall (see Router).
    """

    def __init__(self, overlay: Overlay, nodes: Mapping[int, SwarmNode],
                 *, cache_on_path: bool = False,
                 implicit_storage: bool = False,
                 service_gate: ServiceGate | None = None,
                 strict: bool = False) -> None:
        self.overlay = overlay
        self.nodes = nodes
        self.cache_on_path = cache_on_path
        self.implicit_storage = implicit_storage
        self.service_gate = service_gate
        self.strict = strict
        self.stats = RetrievalStats()

    def _next_willing_hop(self, current: int, chunk_address: int) -> int | None:
        """The closest strictly-closer peer that will serve *current*.

        Without a gate this is the plain greedy choice. With a gate,
        refusing peers are skipped (counted) and the next-closest
        strictly-closer peer is tried — real Swarm nodes route around
        peers that cut them off.
        """
        table = self.overlay.table(current)
        if self.service_gate is None:
            candidate = table.closest_peer(chunk_address)
            if (candidate ^ chunk_address) < (current ^ chunk_address):
                return candidate
            return None
        for candidate in table.closest_peers(chunk_address, len(table)):
            if (candidate ^ chunk_address) >= (current ^ chunk_address):
                return None  # sorted by distance: no closer peer left
            if self.service_gate(candidate, current, chunk_address):
                return candidate
            self.stats.refusals += 1
        return None

    def retrieve(self, originator: int, chunk_address: int) -> Retrieval:
        """Fetch one chunk for *originator*; returns the travelled path."""
        space = self.overlay.space
        space.validate(chunk_address, name="chunk_address")
        if originator not in self.nodes:
            raise RoutingError(
                f"originator {originator} is not a network node",
                origin=originator, target=chunk_address,
            )
        storer = self.overlay.closest_node(chunk_address)
        path = [originator]
        current = originator
        fallback = False
        source = "store"
        origin_node = self.nodes[originator]
        if origin_node.has_chunk(chunk_address) or (
            self.implicit_storage and originator == storer
        ):
            retrieval = Retrieval(
                route=Route(target=chunk_address, path=(originator,)),
                source="local",
            )
            self.stats.record(retrieval, full_hops=0)
            return retrieval

        for _ in range(space.bits + 1):
            if current != originator:
                holder = self.nodes[current]
                hit = holder.serve_source(chunk_address)
                if hit != "miss":
                    source = "store" if hit == "store" else "cache"
                    break
            if current == storer:
                if self.implicit_storage:
                    source = "store"
                    break
                # The designated storer must hold the chunk; a miss here
                # means the content was never uploaded.
                raise RoutingError(
                    f"storer {storer} does not hold chunk {chunk_address}; "
                    "was the content uploaded?",
                    origin=originator, target=chunk_address,
                )
            candidate = self._next_willing_hop(current, chunk_address)
            if candidate is not None:
                path.append(candidate)
                current = candidate
                continue
            if self.strict:
                raise RoutingError(
                    f"greedy retrieval stalled at {current} before reaching "
                    f"storer {storer}",
                    origin=originator, target=chunk_address,
                )
            if self.service_gate is not None and not self.service_gate(
                storer, current, chunk_address
            ):
                # Every closer peer refused and so does the storer:
                # the consumer is cut off until it settles (paper
                # §III-B "nodes stop serving each other's requests").
                self.stats.refusals += 1
                raise RoutingError(
                    f"service refused: node {current} is cut off from "
                    f"chunk {chunk_address} (disconnect threshold)",
                    origin=originator, target=chunk_address,
                )
            path.append(storer)
            current = storer
            fallback = True
        else:  # pragma: no cover - defended by the progress invariant
            raise RoutingError(
                f"retrieval of {chunk_address} exceeded {space.bits} hops",
                origin=originator, target=chunk_address,
            )

        route = Route(
            target=chunk_address, path=tuple(path), fallback=fallback
        )
        if self.cache_on_path:
            # Chunk flows back along the path; each forwarder (not the
            # originator, not the server) admits it.
            for node_address in path[1:-1]:
                self.nodes[node_address].cache.admit(chunk_address)
        full_hops = route.hops
        if route.storer != storer:
            # A cache hit truncated the path: count the hops the rest of
            # the greedy walk to the storer would have taken.
            full_hops += Router(self.overlay).route(
                route.storer, chunk_address).hops
        retrieval = Retrieval(route=route, source=source)
        self.stats.record(retrieval, full_hops=full_hops)
        return retrieval
