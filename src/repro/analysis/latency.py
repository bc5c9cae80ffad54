"""Retrieval-latency modelling and measurement.

The paper measures bandwidth, not latency, but its §V trade-off
discussion ("increasing k means ... higher cost") has a flip side the
simulator can quantify: every saved hop is a saved network round trip.
Two complementary tools live here:

* the hop-histogram *model* (:class:`LatencyModel` /
  :func:`latency_distribution`): converts any simulation's per-chunk
  hop histogram into latency percentiles under a fixed per-hop delay —
  free, but blind to bandwidth contention; and
* the *measured* path (:class:`LatencySummary` /
  :func:`summarize_latencies`): percentile/CDF statistics over the
  per-chunk latency samples the time-domain backend records, which do
  include queueing and fair-share bandwidth effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_non_negative, require_positive
from ..errors import ConfigurationError

__all__ = [
    "LatencyModel",
    "LatencyDistribution",
    "latency_distribution",
    "LatencySummary",
    "summarize_latencies",
]


@dataclass(frozen=True)
class LatencyModel:
    """Per-hop delay parameters.

    ``per_hop_ms`` is the one-way forwarding delay per overlay hop;
    ``base_ms`` covers the requester's fixed costs (lookup, TCP).
    The chunk travels to the storer and back along the same path
    (paper Fig. 1), so a ``hops``-hop retrieval costs
    ``base + 2 * hops * per_hop``.
    """

    per_hop_ms: float = 30.0
    base_ms: float = 5.0

    def __post_init__(self) -> None:
        require_positive(self.per_hop_ms, "per_hop_ms")
        require_non_negative(self.base_ms, "base_ms")

    def retrieval_ms(self, hops: int) -> float:
        """Round-trip latency of one retrieval with *hops* hops."""
        if hops < 0:
            raise ConfigurationError(f"hops must be >= 0, got {hops}")
        return self.base_ms + 2.0 * hops * self.per_hop_ms


@dataclass(frozen=True)
class LatencyDistribution:
    """Latency summary derived from a hop histogram."""

    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float
    chunks: int

    def __str__(self) -> str:
        return (
            f"mean {self.mean_ms:.0f}ms, p50 {self.p50_ms:.0f}ms, "
            f"p90 {self.p90_ms:.0f}ms, p99 {self.p99_ms:.0f}ms, "
            f"max {self.max_ms:.0f}ms over {self.chunks} chunks"
        )


def latency_distribution(hop_histogram: dict[int, int],
                         model: LatencyModel | None = None
                         ) -> LatencyDistribution:
    """Latency percentiles implied by a ``hops -> chunk count`` histogram.

    Exact (not sampled): percentiles are computed on the weighted
    discrete distribution the histogram defines.
    """
    if model is None:
        model = LatencyModel()
    if not hop_histogram:
        raise ConfigurationError("hop histogram is empty")
    hops = np.array(sorted(hop_histogram), dtype=np.int64)
    counts = np.array(
        [hop_histogram[int(h)] for h in hops], dtype=np.int64
    )
    if np.any(counts < 0) or counts.sum() == 0:
        raise ConfigurationError("hop histogram counts must be positive")
    latencies = np.array(
        [model.retrieval_ms(int(h)) for h in hops], dtype=np.float64
    )
    total = int(counts.sum())
    cumulative = np.cumsum(counts)

    def percentile(q: float) -> float:
        rank = q * total
        index = int(np.searchsorted(cumulative, rank, side="left"))
        return float(latencies[min(index, len(latencies) - 1)])

    mean = float(np.dot(latencies, counts) / total)
    return LatencyDistribution(
        mean_ms=mean,
        p50_ms=percentile(0.50),
        p90_ms=percentile(0.90),
        p99_ms=percentile(0.99),
        max_ms=float(latencies[-1]),
        chunks=total,
    )


@dataclass(frozen=True)
class LatencySummary:
    """Percentile statistics over measured per-chunk latency samples."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def __str__(self) -> str:
        return (
            f"latency over {self.count} chunks: mean {self.mean_ms:.1f}ms, "
            f"p50 {self.p50_ms:.1f}ms, p95 {self.p95_ms:.1f}ms, "
            f"p99 {self.p99_ms:.1f}ms, max {self.max_ms:.1f}ms"
        )


def summarize_latencies(samples_ms: np.ndarray) -> LatencySummary:
    """Summarize measured per-chunk retrieval latencies (milliseconds).

    Percentiles use the empirical (inverted-CDF) definition so small
    sample sets report latencies that actually occurred.
    """
    samples = np.asarray(samples_ms, dtype=np.float64)
    if samples.size == 0:
        raise ConfigurationError("no latency samples to summarize")
    if np.any(samples < 0):
        raise ConfigurationError("latency samples must be >= 0")
    samples = np.sort(samples)
    p50, p95, p99 = np.quantile(
        samples, (0.50, 0.95, 0.99), method="inverted_cdf"
    )
    return LatencySummary(
        count=int(samples.size),
        mean_ms=float(samples.mean()),
        p50_ms=float(p50),
        p95_ms=float(p95),
        p99_ms=float(p99),
        max_ms=float(samples[-1]),
    )
