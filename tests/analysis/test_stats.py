"""Unit tests for summary statistics (repro.analysis.stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import _t_quantile, mean_confidence_interval
from repro.errors import ConfigurationError


class TestConfidenceInterval:
    def test_contains_mean(self):
        values = np.random.default_rng(1).normal(10, 2, size=50)
        mean, low, high = mean_confidence_interval(values)
        assert low < mean < high
        assert mean == pytest.approx(values.mean())

    def test_tighter_with_more_data(self):
        rng = np.random.default_rng(2)
        small = rng.normal(0, 1, size=10)
        large = rng.normal(0, 1, size=1000)
        _, low_s, high_s = mean_confidence_interval(small)
        _, low_l, high_l = mean_confidence_interval(large)
        assert (high_l - low_l) < (high_s - low_s)

    def test_known_values(self):
        # mean 2, sample std 1, t(0.975, dof=2) = 4.302652729911275.
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0])
        margin = 4.302652729911275 / np.sqrt(3)
        assert mean == 2.0
        assert low == pytest.approx(2.0 - margin)
        assert high == pytest.approx(2.0 + margin)

    def test_constant_values_give_zero_width(self):
        assert mean_confidence_interval([3.0] * 5) == (3.0, 3.0, 3.0)

    def test_higher_confidence_is_wider(self):
        values = np.random.default_rng(3).normal(0, 1, size=30)
        _, low_90, high_90 = mean_confidence_interval(values, 0.90)
        _, low_99, high_99 = mean_confidence_interval(values, 0.99)
        assert low_99 < low_90 and high_90 < high_99

    def test_single_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)


@pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
def test_t_quantile_matches_scipy_stats(confidence):
    scipy_stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 200):
        expected = float(scipy_stats.t.ppf((1 + confidence) / 2, dof))
        assert _t_quantile(confidence, dof) == expected
