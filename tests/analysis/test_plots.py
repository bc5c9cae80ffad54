"""Unit tests for ASCII rendering (repro.analysis.plots)."""

from __future__ import annotations

import pytest

from repro.analysis.histogram import histogram
from repro.analysis.plots import ascii_histogram, ascii_lorenz
from repro.core.fairness import lorenz_curve
from repro.errors import ConfigurationError


class TestAsciiLorenz:
    def test_contains_legend_with_gini(self):
        curves = {"k=4": lorenz_curve([1.0, 5.0, 10.0])}
        rendered = ascii_lorenz(curves)
        assert "k=4" in rendered
        assert "Gini" in rendered

    def test_multiple_series_distinct_glyphs(self):
        curves = {
            "a": lorenz_curve([1.0, 5.0]),
            "b": lorenz_curve([1.0, 1.0]),
        }
        rendered = ascii_lorenz(curves)
        assert "*" in rendered and "o" in rendered

    def test_canvas_dimensions(self):
        curves = {"a": lorenz_curve([1.0, 2.0])}
        rendered = ascii_lorenz(curves, width=21, height=7)
        plot_lines = [
            line for line in rendered.splitlines()
            if line.startswith("|")
        ]
        assert len(plot_lines) == 7
        assert all(len(line) == 22 for line in plot_lines)

    def test_no_curves_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_lorenz({})

    def test_too_small_canvas_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_lorenz({"a": lorenz_curve([1.0])}, width=5, height=3)


class TestAsciiHistogram:
    def test_one_line_per_bin_plus_header(self):
        hist = histogram([1, 2, 3], bins=4)
        rendered = ascii_histogram(hist)
        assert len(rendered.splitlines()) == 5

    def test_counts_shown(self):
        hist = histogram([1, 1, 1], bins=1)
        assert " 3" in ascii_histogram(hist)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_histogram(histogram([1.0], bins=1), width=0)
