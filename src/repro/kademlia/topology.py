"""Topology diagnostics for built overlays.

The paper's discussion (§V) turns on topology-level trade-offs: larger
buckets mean more open connections (maintenance cost) but shorter
routes (less forwarded bandwidth). This module quantifies those
properties for any :class:`~repro.kademlia.overlay.Overlay` — degree
statistics, route-length distributions sampled over the address space,
reachability, and an optional export to ``networkx`` for ad-hoc graph
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_positive
from ..errors import OverlayError
from .overlay import Overlay
from .routing import Router

__all__ = [
    "DegreeStats",
    "degree_stats",
    "sample_route_lengths",
    "is_fully_routable",
    "to_networkx",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of routing-table sizes across an overlay."""

    n_nodes: int
    min_degree: int
    max_degree: int
    mean_degree: float
    total_edges: int

    def __str__(self) -> str:
        return (
            f"{self.n_nodes} nodes, degree min/mean/max = "
            f"{self.min_degree}/{self.mean_degree:.1f}/{self.max_degree}, "
            f"{self.total_edges} directed edges"
        )


def degree_stats(overlay: Overlay) -> DegreeStats:
    """Compute degree statistics (open-connection cost, paper §V)."""
    degrees = overlay.degrees()
    return DegreeStats(
        n_nodes=len(overlay),
        min_degree=int(degrees.min()),
        max_degree=int(degrees.max()),
        mean_degree=float(degrees.mean()),
        total_edges=int(degrees.sum()),
    )


def sample_route_lengths(overlay: Overlay, samples: int,
                         seed: int = 0) -> np.ndarray:
    """Hop counts for *samples* random (origin, target) routes.

    Origins are sampled uniformly from the nodes and targets uniformly
    from the whole address space, matching the paper's workload shape.
    """
    require_positive(samples, "samples")
    rng = np.random.default_rng(seed)
    router = Router(overlay)
    origins = rng.choice(overlay.address_array(), size=samples)
    targets = rng.integers(0, overlay.space.size, size=samples)
    return np.array(
        [
            router.route(int(origin), int(target)).hops
            for origin, target in zip(origins, targets)
        ],
        dtype=np.int64,
    )


def is_fully_routable(overlay: Overlay, *, strict: bool = True) -> bool:
    """Check that every node can reach every other node's address.

    Exhaustive over node pairs — O(n^2) routes — so intended for the
    small overlays used in tests. With ``strict=True`` a greedy stall
    raises; with ``strict=False`` the check only verifies the routes
    terminate at the correct storer.
    """
    router = Router(overlay, strict=strict)
    for origin in overlay.addresses:
        for destination in overlay.addresses:
            if origin == destination:
                continue
            route = router.route(origin, destination)
            if route.storer != destination:
                raise OverlayError(
                    f"route from {origin} to {destination} ended at "
                    f"{route.storer}"
                )
    return True


def to_networkx(overlay: Overlay):
    """Export the overlay as a directed ``networkx`` graph.

    Requires the optional ``networkx`` dependency; raises ImportError
    with guidance otherwise. Edges carry the bucket index they live in.
    """
    try:
        import networkx as nx
    except ImportError as error:  # pragma: no cover - optional dependency
        raise ImportError(
            "topology export requires networkx; install repro[analysis]"
        ) from error

    graph = nx.DiGraph()
    graph.add_nodes_from(overlay.addresses)
    for owner in overlay.addresses:
        table = overlay.table(owner)
        for peer in table.peers():
            graph.add_edge(
                owner, peer, bucket=overlay.space.proximity(owner, peer)
            )
    return graph
