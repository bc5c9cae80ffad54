"""Summary statistics for experiment outputs.

Mean confidence intervals across Monte-Carlo runs (used when
experiments repeat with different workload seeds). SciPy is used
for exact t quantiles when available, with a normal-approximation
fallback so the core library keeps numpy as its only hard dependency.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["mean_confidence_interval"]


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
