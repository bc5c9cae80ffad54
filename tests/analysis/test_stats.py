"""Unit tests for summary statistics (repro.analysis.stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import (
    _t_quantile,
    mean_confidence_interval,
    summarize,
)
from repro.errors import ConfigurationError


class TestSummarize:
    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == 2.5

    def test_single_value_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_str_contains_fields(self):
        assert "median" in str(summarize([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


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
