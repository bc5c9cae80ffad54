"""Property-based tests for the fairness metrics (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness import gini, lorenz_curve

from ..core.fairness_oracle import gini_pairwise

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=80,
)

positive_values = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=80,
)


class TestGiniProperties:
    @given(values_strategy)
    def test_bounded_in_unit_interval(self, values):
        assert 0.0 <= gini(values) <= 1.0 + 1e-12

    @given(values_strategy)
    @settings(max_examples=60)
    def test_matches_pairwise_definition(self, values):
        assert abs(gini(values) - gini_pairwise(values)) < 1e-9

    @given(positive_values, st.floats(min_value=0.01, max_value=1000))
    def test_scale_invariance(self, values, scale):
        array = np.asarray(values)
        assert abs(gini(array) - gini(array * scale)) < 1e-9

    @given(positive_values)
    def test_permutation_invariance(self, values):
        array = np.asarray(values)
        reversed_order = array[::-1]
        assert abs(gini(array) - gini(reversed_order)) < 1e-12

    @given(positive_values)
    def test_replication_invariance(self, values):
        # Gini of a population equals Gini of the doubled population.
        array = np.asarray(values)
        doubled = np.concatenate([array, array])
        assert abs(gini(array) - gini(doubled)) < 1e-9

    @given(st.floats(min_value=0.01, max_value=100), st.integers(2, 50))
    def test_equal_population_is_zero(self, value, count):
        assert gini([value] * count) < 1e-12

    @given(st.integers(2, 60))
    def test_single_winner_maximum(self, count):
        values = [0.0] * (count - 1) + [1.0]
        assert abs(gini(values) - (count - 1) / count) < 1e-12

    @given(positive_values)
    def test_transfer_principle(self, values):
        # A transfer from a richer to a poorer peer (that does not
        # reverse their order) never increases the Gini.
        if len(values) < 2:
            return
        array = np.sort(np.asarray(values))
        poorest, richest = array[0], array[-1]
        transfer = (richest - poorest) / 4
        transferred = array.copy()
        transferred[0] += transfer
        transferred[-1] -= transfer
        assert gini(transferred) <= gini(array) + 1e-9


class TestLorenzProperties:
    @given(values_strategy)
    def test_endpoints_and_monotonicity(self, values):
        curve = lorenz_curve(values)
        assert curve.cumulative[0] == 0.0
        assert abs(curve.cumulative[-1] - 1.0) < 1e-9
        assert np.all(np.diff(curve.cumulative) >= -1e-12)

    @given(values_strategy)
    def test_never_above_diagonal(self, values):
        curve = lorenz_curve(values)
        assert np.all(curve.cumulative <= curve.population + 1e-9)

    @given(positive_values)
    @settings(max_examples=50)
    def test_curve_gini_close_to_exact(self, values):
        curve = lorenz_curve(values)
        # Trapezoid error is bounded by 1/n.
        assert abs(curve.gini - gini(values)) <= 1.0 / len(values) + 1e-9
