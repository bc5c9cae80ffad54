"""Terminal rendering of the paper's figures.

The benchmark harness runs headless, so the Lorenz curves of Figs. 5
and 6 and the frequency plots of Fig. 4 are rendered as ASCII art:
good enough to eyeball who-dominates-whom and where curves sit
relative to the equality diagonal, with the Gini printed per series.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .._validation import require_int
from ..core.fairness import LorenzCurve
from ..errors import ConfigurationError
from .histogram import Histogram

__all__ = ["ascii_lorenz", "ascii_histogram"]

_SERIES_GLYPHS = "*o+x#@%&"


def ascii_lorenz(curves: Mapping[str, LorenzCurve], *, width: int = 61,
                 height: int = 21) -> str:
    """Render Lorenz curves on one canvas with the equality diagonal.

    Each labelled curve gets a glyph; the legend reports its Gini.
    """
    require_int(width, "width")
    require_int(height, "height")
    if width < 11 or height < 6:
        raise ConfigurationError("canvas must be at least 11x6")
    if not curves:
        raise ConfigurationError("ascii_lorenz needs at least one curve")
    canvas = [[" "] * width for _ in range(height)]
    # Equality diagonal.
    for column in range(width):
        row = round((height - 1) * (1 - column / (width - 1)))
        canvas[row][column] = "."
    # Curves.
    for glyph, (label, curve) in zip(_SERIES_GLYPHS, curves.items()):
        xs = np.linspace(0.0, 1.0, width)
        ys = np.interp(xs, curve.population, curve.cumulative)
        for column, y in enumerate(ys):
            row = round((height - 1) * (1 - y))
            canvas[row][column] = glyph
    lines = ["cumulative share of reward"]
    lines += ["|" + "".join(row) for row in canvas]
    lines.append("+" + "-" * width + "> population share (poorest first)")
    for glyph, (label, curve) in zip(_SERIES_GLYPHS, curves.items()):
        lines.append(f"  {glyph} {label}: Gini = {curve.gini:.4f}")
    return "\n".join(lines)


def ascii_histogram(hist: Histogram, *, width: int = 50,
                    label: str = "value") -> str:
    """Render a histogram as horizontal bars (one line per bin)."""
    require_int(width, "width")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    peak = int(hist.counts.max()) if hist.n_bins else 0
    lines = [f"{label} distribution ({hist.total} observations)"]
    for low, high, count in hist.rows():
        bar_length = 0 if peak == 0 else round(width * count / peak)
        lines.append(
            f"[{low:>10.0f}, {high:>10.0f}) "
            f"{'#' * bar_length}{' ' * (width - bar_length)} {count}"
        )
    return "\n".join(lines)
