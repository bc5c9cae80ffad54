"""Summary statistics for experiment outputs.

Small, dependency-light helpers: five-number summaries for per-node
vectors, and mean confidence intervals across Monte-Carlo runs (used
when experiments repeat with different workload seeds). SciPy is used
for exact t quantiles when available, with a normal-approximation
fallback so the core library keeps numpy as its only hard dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Summary",
    "summarize",
    "mean_confidence_interval",
    "bootstrap_gini_interval",
]


@dataclass(frozen=True)
class Summary:
    """Five-number summary plus mean/std."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} std={self.std:.2f} "
            f"min={self.minimum:.2f} p25={self.p25:.2f} "
            f"median={self.median:.2f} p75={self.p75:.2f} "
            f"max={self.maximum:.2f}"
        )


def summarize(values: Sequence[float] | np.ndarray) -> Summary:
    """Five-number summary of *values*."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("cannot summarize no values")
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        p25=float(np.percentile(array, 25)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        maximum=float(array.max()),
    )


def _t_quantile(confidence: float, dof: int) -> float:
    """Two-sided t quantile; scipy when present, normal fallback.

    ``scipy.special.stdtrit`` is the inverse t CDF that
    ``scipy.stats.t.ppf`` calls, without the cost of importing
    ``scipy.stats``.
    """
    try:
        from scipy import special

        return float(special.stdtrit(dof, (1 + confidence) / 2))
    except ImportError:  # pragma: no cover - scipy installed in dev env
        from statistics import NormalDist

        return float(NormalDist().inv_cdf((1 + confidence) / 2))


def mean_confidence_interval(values: Sequence[float] | np.ndarray,
                             confidence: float = 0.95
                             ) -> tuple[float, float, float]:
    """(mean, low, high) of the mean at the given confidence level.

    Requires at least two observations; with exactly one there is no
    variance estimate and the call raises.
    """
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    array = np.asarray(values, dtype=np.float64)
    if array.size < 2:
        raise ConfigurationError(
            "a confidence interval needs at least two observations"
        )
    mean = float(array.mean())
    stderr = float(array.std(ddof=1) / np.sqrt(array.size))
    margin = _t_quantile(confidence, array.size - 1) * stderr
    return (mean, mean - margin, mean + margin)


def bootstrap_gini_interval(values: Sequence[float] | np.ndarray,
                            *, confidence: float = 0.95,
                            n_resamples: int = 1000,
                            seed: int = 0) -> tuple[float, float, float]:
    """(gini, low, high): percentile-bootstrap CI for a Gini coefficient.

    The Gini of a single simulation run is a point estimate over the
    sampled per-node values; the bootstrap quantifies how much it
    would wobble under resampling of the node population. Used to
    decide whether two configurations' Ginis are distinguishable
    without rerunning the simulation.
    """
    from ..core.fairness import gini

    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if n_resamples < 10:
        raise ConfigurationError(
            f"n_resamples must be >= 10, got {n_resamples}"
        )
    array = np.asarray(values, dtype=np.float64)
    if array.size < 2:
        raise ConfigurationError(
            "a bootstrap interval needs at least two observations"
        )
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_resamples, dtype=np.float64)
    for i in range(n_resamples):
        resample = rng.choice(array, size=array.size, replace=True)
        estimates[i] = gini(resample)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return (gini(array), float(low), float(high))
