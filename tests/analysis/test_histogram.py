"""Unit tests for histograms (repro.analysis.histogram)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.histogram import Histogram, area_ratio, histogram
from repro.errors import ConfigurationError


class TestHistogram:
    def test_counts_preserved(self):
        hist = histogram([1, 1, 2, 5, 9], bins=3, value_range=(0, 9))
        assert hist.total == 5
        assert hist.n_bins == 3
        assert hist.counts.sum() == 5

    def test_pinned_range_shared_bins(self):
        a = histogram([1, 2], bins=4, value_range=(0, 8))
        b = histogram([7, 8], bins=4, value_range=(0, 8))
        assert np.array_equal(a.bin_edges, b.bin_edges)

    def test_rows(self):
        hist = histogram([1, 9], bins=2, value_range=(0, 10))
        assert hist.rows() == [(0.0, 5.0, 1), (5.0, 10.0, 1)]

    def test_rows_tile_the_value_range(self):
        hist = histogram([2.0, 3.5, 4.0, 11.0], bins=3)
        rows = hist.rows()
        assert rows[0][0] == 2.0 and rows[-1][1] == 11.0
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))

    def test_maximum_lands_in_the_last_bin(self):
        hist = histogram([0, 10], bins=2, value_range=(0, 10))
        assert hist.counts.tolist() == [1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            histogram([], bins=3)

    def test_bad_bins_rejected(self):
        with pytest.raises(ConfigurationError):
            histogram([1.0], bins=0)

    def test_mismatched_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(bin_edges=np.array([0.0, 1.0]),
                      counts=np.array([1, 2]))


class TestAreaRatio:
    def test_equals_total_ratio(self):
        assert area_ratio([2, 2], [1, 1]) == pytest.approx(2.0)

    def test_ratio_of_sums_whatever_the_lengths(self):
        assert area_ratio([10.0], [1.0, 1.0, 2.0]) == pytest.approx(2.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ConfigurationError):
            area_ratio([1], [0])
