"""Unit tests for fairness metrics (repro.core.fairness)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fairness import (
    evaluate_fairness,
    f1_values,
    f2_values,
    gini,
    lorenz_curve,
)
from repro.errors import ConfigurationError

from .fairness_oracle import gini_pairwise


class TestGiniKnownValues:
    def test_perfect_equality_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_single_value_is_zero(self):
        assert gini([3.0]) == pytest.approx(0.0)

    def test_all_zero_is_zero(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_one_winner(self):
        # One of n earns everything: G = (n-1)/n.
        for n in (2, 5, 10):
            values = [0.0] * (n - 1) + [1.0]
            assert gini(values) == pytest.approx((n - 1) / n)

    def test_two_point_distribution(self):
        # [1, 3]: mean abs diff = 2*|1-3|/4 = 1; G = 1/(2*mean)=1/4.
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        values = np.array([1.0, 2.0, 7.0, 4.0])
        assert gini(values) == pytest.approx(gini(values * 1000))

    def test_permutation_invariant(self, rng):
        values = rng.random(50)
        shuffled = rng.permutation(values)
        assert gini(values) == pytest.approx(gini(shuffled))

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            values = rng.random(30) * rng.integers(1, 100)
            assert 0.0 <= gini(values) <= 1.0


class TestGiniEquivalence:
    def test_fast_matches_pairwise_definition(self, rng):
        for _ in range(20):
            values = rng.random(rng.integers(1, 60))
            assert gini(values) == pytest.approx(
                gini_pairwise(values), abs=1e-12
            )

    def test_with_zeros_and_ties(self):
        values = [0.0, 0.0, 2.0, 2.0, 5.0]
        assert gini(values) == pytest.approx(gini_pairwise(values))


class TestGiniValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            gini([])

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            gini([1.0, -0.5])

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            gini([1.0, float("nan")])

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            gini(np.ones((2, 2)))


class TestLorenzCurve:
    def test_endpoints(self):
        curve = lorenz_curve([1.0, 2.0, 3.0])
        assert curve.population[0] == 0.0
        assert curve.population[-1] == 1.0
        assert curve.cumulative[0] == 0.0
        assert curve.cumulative[-1] == pytest.approx(1.0)

    def test_monotone_and_convex(self, rng):
        values = rng.random(40)
        curve = lorenz_curve(values)
        diffs = np.diff(curve.cumulative)
        assert np.all(diffs >= -1e-12)
        # Convexity: increments non-decreasing (values sorted ascending).
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_below_diagonal(self, rng):
        values = rng.random(40)
        curve = lorenz_curve(values)
        assert np.all(curve.cumulative <= curve.population + 1e-12)

    def test_curve_gini_matches_direct(self, rng):
        values = rng.random(200)
        curve = lorenz_curve(values)
        # Trapezoid Gini converges to the exact Gini for large n.
        assert curve.gini == pytest.approx(gini(values), abs=0.01)

    def test_equality_curve_is_diagonal(self):
        curve = lorenz_curve([2.0, 2.0, 2.0, 2.0])
        assert np.allclose(curve.cumulative, curve.population)
        assert curve.gini == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_is_diagonal(self):
        curve = lorenz_curve([0.0, 0.0])
        assert np.allclose(curve.cumulative, curve.population)

    def test_points(self):
        points = lorenz_curve([1.0, 3.0]).points()
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        assert points[1] == (0.5, 0.25)

    def test_mismatched_arrays_rejected(self):
        from repro.core.fairness import LorenzCurve

        with pytest.raises(ConfigurationError):
            LorenzCurve(np.zeros(3), np.zeros(4))


class TestF1F2Values:
    def test_f2_is_identity_on_valid_incomes(self):
        incomes = [0.0, 1.0, 2.0]
        assert f2_values(incomes).tolist() == incomes

    def test_f1_ratios_omit_unpaid(self):
        contributions = [10.0, 20.0, 30.0]
        rewards = [2.0, 0.0, 3.0]
        ratios = f1_values(contributions, rewards)
        assert ratios.tolist() == [5.0, 10.0]

    def test_f1_zero_contribution_allowed(self):
        ratios = f1_values([0.0, 4.0], [1.0, 2.0])
        assert ratios.tolist() == [0.0, 2.0]

    def test_f1_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="same shape"):
            f1_values([1.0], [1.0, 2.0])

    def test_f1_nobody_paid_rejected(self):
        with pytest.raises(ConfigurationError, match="positive reward"):
            f1_values([1.0, 2.0], [0.0, 0.0])

    def test_f1_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            f1_values([-1.0], [1.0])


class TestEvaluateFairness:
    def test_perfectly_proportional_gives_zero_f1(self, rng):
        contributions = rng.random(30) + 0.1
        rewards = contributions * 3.0  # exactly proportional
        report = evaluate_fairness(contributions, rewards)
        assert report.f1_gini == pytest.approx(0.0, abs=1e-12)
        assert report.rewarded_peers == 30
        assert report.total_peers == 30

    def test_equal_rewards_give_zero_f2(self, rng):
        contributions = rng.random(30) + 0.1
        rewards = np.full(30, 2.0)
        report = evaluate_fairness(contributions, rewards)
        assert report.f2_gini == pytest.approx(0.0, abs=1e-12)

    def test_summary_mentions_both_ginis(self):
        report = evaluate_fairness([1.0, 2.0], [1.0, 1.0])
        text = report.summary()
        assert "F1" in text and "F2" in text
        assert "2/2" in text
