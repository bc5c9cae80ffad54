"""Bounded-memory online aggregates for the serve daemon.

A batch run finishes with a full :class:`SimulationResult` and only
then computes metrics; ``repro-swarm serve`` never finishes — it needs
rolling metrics *while* micro-epochs flow through, in state that does
not grow with the stream. :class:`StreamingAggregator` is that state:
O(n_nodes) per-node vectors plus scalar counters, absorbed one
micro-epoch result at a time. Because the per-node vectors are held
exactly (they are the same fixed-size arrays the batch run fills),
every emitted metric — mean hops, availability, the paper's F1/F2
Gini — is *exactly* the batch value over the requests seen so far,
not an approximation. The daemon holds one aggregator per session and
emits :meth:`StreamingAggregator.snapshot` lines as batches complete.
"""

from __future__ import annotations

import numpy as np

from ..core.fairness import evaluate_fairness, gini
from ..errors import ConfigurationError

__all__ = ["StreamingAggregator"]


class StreamingAggregator:
    """Exact online aggregates over a stream of micro-epoch results.

    Holds the same per-node vectors a batch result holds (O(n_nodes),
    independent of stream length) plus the scalar counters; absorbing
    a micro-epoch's :class:`SimulationResult` adds them. The final
    :meth:`summary` over a fully absorbed stream equals the batch
    run's metrics — exactly, including the float income/expenditure
    totals, because chunk prices are dyadic rationals whose sums
    never round (``tests/integration/test_serve.py`` pins this
    against ``run()`` on every golden configuration).
    """

    def __init__(self, node_addresses: np.ndarray) -> None:
        n = len(node_addresses)
        self.node_addresses = np.asarray(node_addresses, dtype=np.int64)
        self.forwarded = np.zeros(n, dtype=np.int64)
        self.first_hop = np.zeros(n, dtype=np.int64)
        self.income = np.zeros(n, dtype=np.float64)
        self.expenditure = np.zeros(n, dtype=np.float64)
        self.files = 0
        self.chunks = 0
        self.total_hops = 0
        self.local_hits = 0
        self.fallbacks = 0
        self.cache_hits = 0
        self.unavailable = 0
        self.hop_histogram: dict[int, int] = {}
        self.epochs = 0

    @property
    def n_nodes(self) -> int:
        return len(self.node_addresses)

    def absorb(self, result, *, epochs: int = 1) -> "StreamingAggregator":
        """Fold one micro-epoch's result into the running totals."""
        if not np.array_equal(
            np.asarray(result.node_addresses, dtype=np.int64),
            self.node_addresses,
        ):
            raise ConfigurationError(
                "cannot absorb a result from a different overlay "
                "(node addresses differ)"
            )
        self.forwarded += result.forwarded
        self.first_hop += result.first_hop
        self.income += result.income
        self.expenditure += result.expenditure
        self.files += result.files
        self.chunks += result.chunks
        self.total_hops += result.total_hops
        self.local_hits += result.local_hits
        self.fallbacks += result.fallbacks
        self.cache_hits += result.cache_hits
        self.unavailable += result.unavailable
        for hops, count in result.hop_histogram.items():
            self.hop_histogram[hops] = (
                self.hop_histogram.get(hops, 0) + count
            )
        self.epochs += epochs
        return self

    # ------------------------------------------------------------------
    # Metrics (each exact over the events absorbed so far)

    @property
    def mean_hops(self) -> float:
        retrieved = self.chunks - self.unavailable
        if retrieved <= 0:
            return 0.0
        return self.total_hops / retrieved

    @property
    def availability(self) -> float:
        if self.chunks == 0:
            return 1.0
        return 1.0 - self.unavailable / self.chunks

    def f2_gini(self) -> float:
        """Fig. 5 metric: exact Gini of per-node income so far."""
        return gini(self.income)

    def f1_gini(self) -> float:
        """Fig. 6 metric: exact Gini of forwarded/first-hop ratios.

        0.0 before any paid hop exists — a server must be able to
        flush its final summary even if the stream was empty.
        """
        if not self.first_hop.any():
            return 0.0
        return evaluate_fairness(
            self.forwarded.astype(np.float64),
            self.first_hop.astype(np.float64),
        ).f1_gini

    def snapshot(self) -> dict:
        """Rolling aggregate line (the serve NDJSON output schema)."""
        return {
            "epochs": self.epochs,
            "files": self.files,
            "chunks": self.chunks,
            "total_hops": self.total_hops,
            "mean_hops": self.mean_hops,
            "availability": self.availability,
            "local_hits": self.local_hits,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "unavailable": self.unavailable,
            "f2_gini": self.f2_gini(),
            "total_income": float(self.income.sum()),
            "total_expenditure": float(self.expenditure.sum()),
        }

    def summary(self) -> dict:
        """Final aggregate: the snapshot plus the full-stream extras.

        Drops the ``epochs`` count — it reflects how the stream was
        batched, not what was served — so a streamed final summary is
        byte-comparable against a one-shot batch reference (the CI
        serve smoke relies on this).
        """
        out = self.snapshot()
        del out["epochs"]
        out["f1_gini"] = self.f1_gini()
        out["mean_forwarded"] = float(self.forwarded.mean())
        out["hop_histogram"] = {
            str(h): self.hop_histogram[h]
            for h in sorted(self.hop_histogram)
        }
        return out
