"""Forwarding-Kademlia routing (paper §III-A, Fig. 1).

In forwarding Kademlia the *request travels*, not the requester: each
node on the path forwards the request to the peer in its own routing
table that is XOR-closest to the target address, and the chunk later
flows back along the same path. No node can tell whether its upstream
is the originator or another forwarder, which is Swarm's privacy
property.

:class:`Router` implements the greedy next-hop rule on top of an
:class:`~repro.kademlia.overlay.Overlay` and records per-route
telemetry in :class:`Route` / aggregate telemetry in
:class:`RoutingStats`. Greedy forwarding makes strict progress (every
hop is strictly XOR-closer to the target; the
:mod:`repro.kademlia.overlay` docstring argues why it ends at the
closest node), so a route has at most ``bits`` hops. If greedy stalls before reaching the
global closest node — possible only in pathological capped-bucket
topologies without a symmetric neighborhood — the router performs an
explicit *neighborhood hand-off* to the storer and counts it, or
raises in ``strict`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RoutingError
from .overlay import Overlay

__all__ = ["Route", "RoutingStats", "Router"]


@dataclass(frozen=True)
class Route:
    """The resolved path of one chunk request.

    Attributes
    ----------
    target:
        The chunk address being fetched.
    path:
        Node addresses from the originator (inclusive) to the node that
        served the chunk (inclusive). ``path[1]`` — when present — is
        the *zero-proximity node*: the only hop the originator pays
        under Swarm's default policy (paper §III-B).
    fallback:
        True when greedy forwarding stalled and the final hop used the
        neighborhood hand-off.
    """

    target: int
    path: tuple[int, ...]
    fallback: bool = False

    @property
    def originator(self) -> int:
        """The node that issued the request."""
        return self.path[0]

    @property
    def storer(self) -> int:
        """The node that served the chunk (end of the path)."""
        return self.path[-1]

    @property
    def hops(self) -> int:
        """Number of edges traversed (0 when the originator stores it)."""
        return len(self.path) - 1

    @property
    def first_hop(self) -> int | None:
        """The zero-proximity node, or ``None`` for a local hit."""
        return self.path[1] if len(self.path) > 1 else None


@dataclass
class RoutingStats:
    """Aggregate telemetry across many routes."""

    routes: int = 0
    total_hops: int = 0
    local_hits: int = 0
    fallback_hops: int = 0
    hop_histogram: dict[int, int] = field(default_factory=dict)

    def record(self, route: Route) -> None:
        """Fold one route into the aggregate."""
        self.routes += 1
        self.total_hops += route.hops
        if route.hops == 0:
            self.local_hits += 1
        if route.fallback:
            self.fallback_hops += 1
        self.hop_histogram[route.hops] = self.hop_histogram.get(route.hops, 0) + 1

    @property
    def mean_hops(self) -> float:
        """Average path length over all recorded routes."""
        if self.routes == 0:
            return 0.0
        return self.total_hops / self.routes

    def merge(self, other: "RoutingStats") -> "RoutingStats":
        """Return a new stats object combining self and *other*."""
        merged = RoutingStats(
            routes=self.routes + other.routes,
            total_hops=self.total_hops + other.total_hops,
            local_hits=self.local_hits + other.local_hits,
            fallback_hops=self.fallback_hops + other.fallback_hops,
            hop_histogram=dict(self.hop_histogram),
        )
        for hops, count in other.hop_histogram.items():
            merged.hop_histogram[hops] = merged.hop_histogram.get(hops, 0) + count
        return merged


class Router:
    """Greedy forwarding-Kademlia router over a static overlay.

    Parameters
    ----------
    overlay:
        The built overlay whose routing tables drive forwarding.
    strict:
        When True, a greedy stall raises :class:`RoutingError` instead
        of using the neighborhood hand-off. Paper-scale overlays with
        symmetric neighborhoods never stall; ``strict=True`` is used in
        tests to prove that.
    """

    def __init__(self, overlay: Overlay, *, strict: bool = False) -> None:
        self.overlay = overlay
        self.strict = strict
        self.stats = RoutingStats()

    def route(self, origin: int, target: int) -> Route:
        """Resolve the path a request for *target* takes from *origin*.

        The path ends at the chunk's storer — the globally XOR-closest
        node to *target* (paper §IV-B stores every chunk only there).
        """
        space = self.overlay.space
        space.validate(target, name="target")
        if origin not in self.overlay:
            raise RoutingError(
                f"origin {origin} is not an overlay node",
                origin=origin, target=target,
            )
        storer = self.overlay.closest_node(target)
        path = [origin]
        current = origin
        fallback = False
        # Strict XOR progress bounds the loop by the address width; the
        # explicit bound turns a logic bug into a loud failure instead
        # of an infinite loop.
        for _ in range(space.bits + 1):
            if current == storer:
                break
            table = self.overlay.table(current)
            candidate = table.closest_peer(target)
            if (candidate ^ target) < (current ^ target):
                path.append(candidate)
                current = candidate
                continue
            # Greedy stall: no known peer improves on the current node.
            if self.strict:
                raise RoutingError(
                    f"greedy routing stalled at {current} before reaching "
                    f"storer {storer}",
                    origin=origin, target=target,
                )
            path.append(storer)
            current = storer
            fallback = True
        else:  # pragma: no cover - defended by the progress invariant
            raise RoutingError(
                f"route from {origin} to {target} exceeded {space.bits} hops",
                origin=origin, target=target,
            )
        route = Route(target=target, path=tuple(path), fallback=fallback)
        self.stats.record(route)
        return route
