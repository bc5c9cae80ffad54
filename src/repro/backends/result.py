"""Per-node outcome vectors shared by every simulation backend."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core.fairness import (
    FairnessReport,
    LorenzCurve,
    evaluate_fairness,
    gini,
    lorenz_curve,
)
from ..errors import ConfigurationError
from .config import FastSimulationConfig

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Per-node outcome vectors of one simulation run.

    All arrays are aligned with ``node_addresses`` (the overlay's
    dense index order). ``income`` is the accounting units received as
    the paid zero-proximity hop; ``expenditure`` is what originators
    paid out. ``cache_hits`` and ``unavailable`` are only non-zero
    when the corresponding scenario (path caching, churn) is active.
    ``latency_ms`` holds one measured retrieval latency per retrieved
    chunk (unordered) when the run came from the time-domain backend,
    else ``None`` — the timeless hop backends have no clock.
    """

    config: FastSimulationConfig
    node_addresses: np.ndarray
    forwarded: np.ndarray
    first_hop: np.ndarray
    income: np.ndarray
    expenditure: np.ndarray
    files: int = 0
    chunks: int = 0
    total_hops: int = 0
    local_hits: int = 0
    fallbacks: int = 0
    cache_hits: int = 0
    unavailable: int = 0
    hop_histogram: dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    latency_ms: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Paper quantities

    @property
    def n_nodes(self) -> int:
        """Number of nodes simulated."""
        return len(self.node_addresses)

    @property
    def mean_hops(self) -> float:
        """Average path length per chunk retrieval."""
        retrieved = self.chunks - self.unavailable
        if retrieved <= 0:
            return 0.0
        return self.total_hops / retrieved

    @property
    def availability(self) -> float:
        """Fraction of requested chunks actually retrieved."""
        if self.chunks == 0:
            return 1.0
        return 1.0 - self.unavailable / self.chunks

    def average_forwarded_chunks(self) -> float:
        """Table I cell: network mean of per-node forwarded chunks."""
        return float(self.forwarded.mean())

    def f2_gini(self) -> float:
        """Fig. 5: Gini of per-node income, all nodes."""
        return gini(self.income)

    def f2_curve(self) -> LorenzCurve:
        """Fig. 5: Lorenz curve of per-node income."""
        return lorenz_curve(self.income)

    def f1_gini(self) -> float:
        """Fig. 6: Gini of forwarded/first-hop ratios, paid nodes only.

        0.0 when no node has a paid first hop (an empty stream, or a
        network with every node offline), as :meth:`f2_gini` reads 0.0
        on zero income; :meth:`f1_report` and :meth:`f1_curve` raise
        there instead, having no ratios to report.
        """
        if not self.first_hop.any():
            return 0.0
        return self.f1_report().f1_gini

    def f1_curve(self) -> LorenzCurve:
        """Fig. 6: Lorenz curve of the F1 ratios."""
        return self.f1_report().f1_curve

    def f1_report(self) -> FairnessReport:
        """Full F1/F2 report in the paper's Fig. 6 formulation."""
        return evaluate_fairness(
            self.forwarded.astype(np.float64),
            self.first_hop.astype(np.float64),
        )

    def income_report(self) -> FairnessReport:
        """F1/F2 with income (units) as the reward."""
        return evaluate_fairness(self.forwarded.astype(np.float64), self.income)

    def latency_stats(self):
        """Measured latency percentiles (time backend runs only).

        Returns an :class:`~repro.analysis.latency.LatencySummary`;
        raises :class:`ConfigurationError` when the run carries no
        latency samples (any timeless backend).
        """
        from ..analysis.latency import summarize_latencies

        if self.latency_ms is None:
            raise ConfigurationError(
                "this result carries no latency samples; run the "
                "'time' backend to measure retrieval latency"
            )
        return summarize_latencies(self.latency_ms)

    def summary(self) -> str:
        """One-paragraph run summary."""
        extras = ""
        if self.cache_hits:
            extras += f", cache hits = {self.cache_hits}"
        if self.unavailable:
            extras += f", availability = {self.availability:.1%}"
        if self.latency_ms is not None and self.latency_ms.size:
            stats = self.latency_stats()
            extras += (
                f", latency p50/p95/p99 = {stats.p50_ms:.1f}/"
                f"{stats.p95_ms:.1f}/{stats.p99_ms:.1f} ms"
            )
        return (
            f"{self.files} files / {self.chunks} chunks over "
            f"{self.n_nodes} nodes (k={self.config.bucket_size}, "
            f"originators={self.config.originator_share:.0%}): "
            f"mean forwarded = {self.average_forwarded_chunks():.0f}, "
            f"mean hops = {self.mean_hops:.2f}, "
            f"F2 Gini = {self.f2_gini():.4f}, "
            f"F1 Gini = {self.f1_gini():.4f}, "
            f"fallback hops = {self.fallbacks}{extras}"
        )

    def add(self, other: "SimulationResult") -> "SimulationResult":
        """Add *other*'s counters, vectors and samples into this result.

        In place; the caller checks that both results cover the same
        overlay. Returns ``self``.
        """
        self.forwarded += other.forwarded
        self.first_hop += other.first_hop
        self.income += other.income
        self.expenditure += other.expenditure
        self.files += other.files
        self.chunks += other.chunks
        self.total_hops += other.total_hops
        self.local_hits += other.local_hits
        self.fallbacks += other.fallbacks
        self.cache_hits += other.cache_hits
        self.unavailable += other.unavailable
        for hops, count in other.hop_histogram.items():
            self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + count
        self.elapsed_seconds += other.elapsed_seconds
        parts = [samples for samples in (self.latency_ms, other.latency_ms)
                 if samples is not None]
        if parts:
            self.latency_ms = np.concatenate(parts)
        return self

    def merge(self, other: "SimulationResult") -> "SimulationResult":
        """Combine two runs over the same overlay (multi-machine story).

        Configurations must agree on everything except the workload
        seed and file count, mirroring the paper's split of one
        simulation across machines. Neither input is modified.
        """
        ours, theirs = self.config, other.config
        normalize = lambda c: dataclasses.replace(  # noqa: E731
            c, n_files=1, workload_seed=0
        )
        if normalize(ours) != normalize(theirs):
            raise ConfigurationError(
                "cannot merge results whose configurations differ in "
                "anything but the workload seed and file count"
            )
        merged = dataclasses.replace(
            self, forwarded=self.forwarded.copy(),
            first_hop=self.first_hop.copy(), income=self.income.copy(),
            expenditure=self.expenditure.copy(),
            hop_histogram=dict(self.hop_histogram),
        )
        return merged.add(other)
