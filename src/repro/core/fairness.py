"""Fairness metrics: Gini coefficient, Lorenz curves, and the paper's
F1/F2 properties (paper §II-A).

The paper proposes two fairness properties for token-incentivized p2p
networks and measures both with the Gini coefficient (Eq. 1):

* **F1 — proportional reward.** Rewards should be proportional to the
  resources a peer actually contributed. Measured as the Gini
  coefficient of the per-peer ratio ``resources_contributed /
  reward_received``, restricted to peers that received any reward.
  A Gini of 0 means every rewarded peer earns the same per unit of
  contributed bandwidth.
* **F2 — equal opportunity.** Peers willing to provide the same
  resources should be able to earn the same reward. Measured as the
  Gini coefficient of per-peer income over *all* peers. A Gini of 0
  means every peer earned the same; 1 means a single peer earned
  everything.

The Gini implementation is exact (it matches the paper's Eq. 1 mean
absolute-difference form) but runs in O(n log n) via the sorted-values
identity instead of the O(n^2) double sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "gini",
    "lorenz_curve",
    "LorenzCurve",
    "FairnessReport",
    "f1_values",
    "f2_values",
    "evaluate_fairness",
]


def _as_valid_array(values: Sequence[float] | np.ndarray,
                    name: str) -> np.ndarray:
    """Convert to a float array and validate Gini preconditions."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    if array.size == 0:
        raise ConfigurationError(f"{name} must not be empty")
    if np.any(array < 0):
        raise ConfigurationError(
            f"{name} must be non-negative for a Gini coefficient"
        )
    if not np.all(np.isfinite(array)):
        raise ConfigurationError(f"{name} must be finite")
    return array


def gini(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient of non-negative *values* (paper Eq. 1).

    Computed with the sorted identity
    ``G = (2 * sum(i * x_i) / (n * sum(x))) - (n + 1) / n``
    (1-based ranks over ascending ``x``), which equals the paper's
    normalized mean absolute difference. Returns 0.0 for an all-zero
    population (nobody earns anything — trivially equal).
    """
    array = _as_valid_array(values, "values")
    total = array.sum()
    if total == 0:
        return 0.0
    ordered = np.sort(array)
    n = ordered.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    value = 2.0 * np.dot(ranks, ordered) / (n * total) - (n + 1) / n
    # Clamp float cancellation noise at the boundaries; the exact
    # coefficient is always in [0, 1].
    return float(min(max(value, 0.0), 1.0))


@dataclass(frozen=True)
class LorenzCurve:
    """A Lorenz curve: cumulative population share vs cumulative value share.

    ``population[i]`` is the fraction of peers (poorest first) holding
    ``cumulative[i]`` of the total value. Both arrays start at 0.0 and
    end at 1.0. The curve for perfect equality is the diagonal.
    """

    population: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        if self.population.shape != self.cumulative.shape:
            raise ConfigurationError("Lorenz curve arrays must align")

    @property
    def gini(self) -> float:
        """Gini coefficient implied by the curve (trapezoid rule)."""
        area_under = float(np.trapezoid(self.cumulative, self.population))
        return 1.0 - 2.0 * area_under

    def points(self) -> list[tuple[float, float]]:
        """The curve as a list of (population, cumulative) pairs."""
        return list(zip(self.population.tolist(), self.cumulative.tolist()))


def lorenz_curve(values: Sequence[float] | np.ndarray) -> LorenzCurve:
    """Lorenz curve of non-negative *values* (paper Figs. 5 and 6).

    For an all-zero population, returns the equality diagonal.
    """
    array = _as_valid_array(values, "values")
    ordered = np.sort(array)
    total = ordered.sum()
    n = ordered.size
    population = np.linspace(0.0, 1.0, n + 1)
    if total == 0:
        return LorenzCurve(population=population, cumulative=population.copy())
    cumulative = np.concatenate(([0.0], np.cumsum(ordered) / total))
    return LorenzCurve(population=population, cumulative=cumulative)


def f2_values(incomes: Sequence[float] | np.ndarray) -> np.ndarray:
    """Per-peer values entering the F2 (equal opportunity) Gini.

    F2 is computed over the raw income of *every* peer, including
    those who earned nothing (paper §II-A: "a coefficient of 1 means
    that only one node receives rewards").
    """
    return _as_valid_array(incomes, "incomes")


def f1_values(contributions: Sequence[float] | np.ndarray,
              rewards: Sequence[float] | np.ndarray) -> np.ndarray:
    """Per-peer values entering the F1 (proportional reward) Gini.

    Following the paper §II-A: divide each peer's contributed
    resources by its received reward, *omitting peers that did not
    receive any reward*. A peer with rewards but zero recorded
    contribution contributes a ratio of 0 (it was overpaid relative to
    work, which still counts as inequality of the ratio).
    """
    contributed = np.asarray(contributions, dtype=np.float64)
    rewarded = np.asarray(rewards, dtype=np.float64)
    if contributed.shape != rewarded.shape:
        raise ConfigurationError(
            "contributions and rewards must have the same shape, got "
            f"{contributed.shape} vs {rewarded.shape}"
        )
    if np.any(contributed < 0) or np.any(rewarded < 0):
        raise ConfigurationError("contributions and rewards must be >= 0")
    paid = rewarded > 0
    if not np.any(paid):
        raise ConfigurationError(
            "F1 requires at least one peer with a positive reward"
        )
    return contributed[paid] / rewarded[paid]


@dataclass(frozen=True)
class FairnessReport:
    """F1/F2 evaluation of one simulation outcome."""

    f1_gini: float
    f2_gini: float
    f1_curve: LorenzCurve
    f2_curve: LorenzCurve
    rewarded_peers: int
    total_peers: int

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        return (
            f"F1 (proportional reward) Gini = {self.f1_gini:.4f}; "
            f"F2 (equal opportunity) Gini = {self.f2_gini:.4f}; "
            f"{self.rewarded_peers}/{self.total_peers} peers were rewarded"
        )


def evaluate_fairness(contributions: Sequence[float] | np.ndarray,
                      rewards: Sequence[float] | np.ndarray) -> FairnessReport:
    """Evaluate both fairness properties for one outcome.

    Parameters
    ----------
    contributions:
        Per-peer resource contribution (e.g. chunks forwarded).
    rewards:
        Per-peer reward received (e.g. accounting units of income).
    """
    f1_vals = f1_values(contributions, rewards)
    f2_vals = f2_values(rewards)
    return FairnessReport(
        f1_gini=gini(f1_vals),
        f2_gini=gini(f2_vals),
        f1_curve=lorenz_curve(f1_vals),
        f2_curve=lorenz_curve(f2_vals),
        rewarded_peers=int(np.count_nonzero(np.asarray(rewards) > 0)),
        total_peers=int(np.asarray(rewards).size),
    )
