"""The serve daemon's NDJSON output schema over one running result.

A batch run finishes with a full :class:`SimulationResult` and only
then computes metrics; ``repro-swarm serve`` never finishes — it needs
rolling metrics *while* micro-epochs flow through, in state that does
not grow with the stream. That state is one running
:class:`SimulationResult` (O(n_nodes) per-node vectors plus scalar
counters): :class:`StreamingAggregator` adds each micro-epoch's result
into it, counts the epochs, and renders the serve ``snapshot`` and
``final`` lines from the result's own metrics. Every emitted metric —
mean hops, availability, the paper's F1/F2 Gini — is therefore
*exactly* the batch value over the requests seen so far, computed by
the same code, not an approximation.
"""

from __future__ import annotations

import numpy as np

from ..backends.result import SimulationResult
from ..errors import ConfigurationError

__all__ = ["StreamingAggregator"]


class StreamingAggregator:
    """A running :class:`SimulationResult` and its micro-epoch count.

    Absorbing a micro-epoch's result adds it into :attr:`result`. The
    final :meth:`summary` over a fully absorbed stream equals the
    batch run's metrics — exactly, including the float
    income/expenditure totals, because chunk prices are dyadic
    rationals whose sums never round (``tests/integration/
    test_serve.py`` pins this against ``run()`` on every golden
    configuration).
    """

    def __init__(self, result: SimulationResult) -> None:
        self.result = result
        self.epochs = 0

    def absorb(self, result: SimulationResult, *,
               epochs: int = 1) -> "StreamingAggregator":
        """Add one micro-epoch's result into the running result."""
        if not np.array_equal(result.node_addresses,
                              self.result.node_addresses):
            raise ConfigurationError(
                "cannot absorb a result from a different overlay "
                "(node addresses differ)"
            )
        self.result.add(result)
        self.epochs += epochs
        return self

    def snapshot(self) -> dict:
        """Rolling aggregate line (the serve NDJSON output schema)."""
        result = self.result
        return {
            "epochs": self.epochs,
            "files": result.files,
            "chunks": result.chunks,
            "total_hops": result.total_hops,
            "mean_hops": result.mean_hops,
            "availability": result.availability,
            "local_hits": result.local_hits,
            "fallbacks": result.fallbacks,
            "cache_hits": result.cache_hits,
            "unavailable": result.unavailable,
            "f2_gini": result.f2_gini(),
            "total_income": float(result.income.sum()),
            "total_expenditure": float(result.expenditure.sum()),
        }

    def summary(self) -> dict:
        """Final aggregate: the snapshot plus the full-stream extras.

        Drops the ``epochs`` count — it reflects how the stream was
        batched, not what was served — so a streamed final summary is
        byte-comparable against a one-shot batch reference (the CI
        serve smoke relies on this).
        """
        result = self.result
        out = self.snapshot()
        del out["epochs"]
        out["f1_gini"] = result.f1_gini()
        out["mean_forwarded"] = result.average_forwarded_chunks()
        out["hop_histogram"] = {
            str(h): result.hop_histogram[h]
            for h in sorted(result.hop_histogram)
        }
        return out
