"""The paper's Eq. 1 Gini as a direct double sum, kept as the oracle.

:func:`repro.core.fairness.gini` evaluates the coefficient in
O(n log n) through the sorted-values identity; the tests hold it equal
to this O(n^2) mean absolute difference on random inputs. Do not use
it on large populations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["gini_pairwise"]


def gini_pairwise(values: Sequence[float] | np.ndarray) -> float:
    """``sum_ij |x_i - x_j| / (2 n sum(x))``; 0.0 when every value is 0."""
    array = np.asarray(values, dtype=np.float64)
    total = array.sum()
    if total == 0:
        return 0.0
    differences = np.abs(array[:, None] - array[None, :]).sum()
    return float(differences / (2.0 * array.size * total))
