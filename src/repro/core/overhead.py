"""Overhead accounting (paper §V, first future-work thread).

"With the simulation, we demonstrated that with k = 20, the Gini
coefficient approaches a smaller value, but we did not identify the
produced overhead ... There should be a trade-off between the
quantity of overhead generated and the amount of money received."

This module supplies that missing accounting. §V names three costs of
a larger k, each modelled explicitly:

1. **connection maintenance** — keepalive traffic proportional to the
   number of open connections (routing-table size);
2. **payment transactions** — each paid peer relationship implies
   settlement transactions whose fixed cost can exceed small rewards;
3. **amortization channels** — per-peer time-based accounting state.

:func:`overhead_report` combines a simulation result with a cost
model and answers the §V question directly: net earnings per node
after overhead, and whether the fairness gain of k=20 survives the
extra cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_non_negative
from ..kademlia.overlay import Overlay

__all__ = ["OverheadModel", "OverheadReport", "overhead_report"]


@dataclass(frozen=True)
class OverheadModel:
    """Unit costs of keeping the network running.

    All costs are in the same accounting units as income so they can
    be netted. Defaults are deliberately small relative to a chunk
    price; sweeps raise them to find the break-even point.
    """

    keepalive_cost_per_connection: float = 0.001
    transaction_cost: float = 0.01
    channel_state_cost: float = 0.0005

    def __post_init__(self) -> None:
        require_non_negative(
            self.keepalive_cost_per_connection,
            "keepalive_cost_per_connection",
        )
        require_non_negative(self.transaction_cost, "transaction_cost")
        require_non_negative(
            self.channel_state_cost, "channel_state_cost"
        )


@dataclass(frozen=True)
class OverheadReport:
    """Per-node overhead versus income for one simulation outcome."""

    income: np.ndarray
    connection_cost: np.ndarray
    transaction_cost: np.ndarray
    channel_cost: np.ndarray

    @property
    def total_overhead(self) -> np.ndarray:
        """All per-node costs combined."""
        return self.connection_cost + self.transaction_cost + self.channel_cost

    @property
    def net_income(self) -> np.ndarray:
        """Income minus overhead (may be negative)."""
        return self.income - self.total_overhead

    @property
    def underwater_nodes(self) -> int:
        """Nodes whose overhead exceeds their income (§V's warning)."""
        return int(np.count_nonzero(self.net_income < 0))

    def mean_net_income(self) -> float:
        """Network-wide mean net income."""
        return float(self.net_income.mean())

    def overhead_share(self) -> float:
        """Fraction of gross income consumed by overhead."""
        gross = float(self.income.sum())
        if gross == 0:
            return 0.0
        return float(self.total_overhead.sum()) / gross

    def summary(self) -> str:
        """One-line report."""
        return (
            f"mean net income = {self.mean_net_income():.4f}, "
            f"overhead share = {self.overhead_share():.1%}, "
            f"{self.underwater_nodes} nodes underwater"
        )


def overhead_report(overlay: Overlay, income: np.ndarray,
                    paid_chunks: np.ndarray,
                    model: OverheadModel | None = None) -> OverheadReport:
    """Compute per-node overhead for one simulation outcome.

    Parameters
    ----------
    overlay:
        The overlay the simulation ran on — supplies per-node degree
        (open connections) and, as a proxy for channel state, the
        same degree.
    income:
        Per-node gross income, dense-index order.
    paid_chunks:
        Per-node count of paid (first-hop) chunks; each batch of paid
        chunks implies settlement transactions. The model charges one
        transaction per paid *peer relationship* per run, approximated
        as the node's bucket-0-to-depth degree capped by the paid
        chunk count.
    """
    if model is None:
        model = OverheadModel()
    degrees = overlay.degrees().astype(np.float64)
    if income.shape != degrees.shape or paid_chunks.shape != degrees.shape:
        raise ValueError(
            "income and paid_chunks must align with the overlay's nodes"
        )
    transactions = np.minimum(degrees, paid_chunks.astype(np.float64))
    return OverheadReport(
        income=income.astype(np.float64),
        connection_cost=degrees * model.keepalive_cost_per_connection,
        transaction_cost=transactions * model.transaction_cost,
        channel_cost=degrees * model.channel_state_cost,
    )
