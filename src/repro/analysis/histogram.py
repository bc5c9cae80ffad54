"""Distribution analysis for per-node traffic (paper Fig. 4).

Fig. 4 plots, for each configuration, how many chunks individual
nodes forwarded — a frequency histogram over nodes. The paper also
compares configurations by the *area* under those frequency curves
("the area under k = 4 is 1.6x bigger than the area for k = 20"),
which equals total forwarded chunks; :func:`area_ratio` reproduces
that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import require_int
from ..errors import ConfigurationError

__all__ = ["Histogram", "histogram", "area_ratio"]


@dataclass(frozen=True)
class Histogram:
    """A binned frequency distribution."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ConfigurationError(
                "bin_edges must have exactly one more entry than counts"
            )

    @property
    def n_bins(self) -> int:
        """Number of bins."""
        return len(self.counts)

    @property
    def total(self) -> int:
        """Total observations."""
        return int(self.counts.sum())

    def rows(self) -> list[tuple[float, float, int]]:
        """(low, high, count) per bin, for tabular rendering."""
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]),
             int(self.counts[i]))
            for i in range(self.n_bins)
        ]


def histogram(values: Sequence[float] | np.ndarray, bins: int = 20,
              value_range: tuple[float, float] | None = None) -> Histogram:
    """Bin *values* into a :class:`Histogram`.

    ``value_range`` pins the edges so histograms of different
    configurations share bins and are directly comparable, as in
    Fig. 4's side-by-side panels.
    """
    require_int(bins, "bins")
    if bins < 1:
        raise ConfigurationError(f"bins must be >= 1, got {bins}")
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("cannot build a histogram of no values")
    counts, edges = np.histogram(array, bins=bins, range=value_range)
    return Histogram(bin_edges=edges, counts=counts)


def area_ratio(values_a: Sequence[float] | np.ndarray,
               values_b: Sequence[float] | np.ndarray) -> float:
    """Ratio of total mass between two per-node traffic distributions.

    The paper's "area under the frequency curve" equals the sum of
    the underlying values (total forwarded chunks), so the ratio is
    computed exactly rather than from binned counts.
    """
    total_a = float(np.asarray(values_a, dtype=np.float64).sum())
    total_b = float(np.asarray(values_b, dtype=np.float64).sum())
    if total_b == 0:
        raise ConfigurationError(
            "cannot compute an area ratio against zero total traffic"
        )
    return total_a / total_b
