"""Topology diagnostics for built overlays.

The paper's discussion (§V) turns on topology-level trade-offs: larger
buckets mean more open connections (maintenance cost) but shorter
routes (less forwarded bandwidth). This module reports the first of
those for any :class:`~repro.kademlia.overlay.Overlay`: its degree
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .overlay import Overlay

__all__ = ["DegreeStats", "degree_stats"]


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
