"""Tabular report rendering (Table I and friends).

Experiments produce :class:`Table` objects — ordered headers plus
rows — that render to aligned plain text (for the terminal) and
Markdown (for EXPERIMENTS.md). Keeping the renderer dumb and the data
structured means every benchmark prints the same rows the paper
reports, in a diff-able form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import ConfigurationError

__all__ = ["Table"]


@dataclass
class Table:
    """An ordered, render-agnostic table."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.headers:
            raise ConfigurationError("a table needs at least one column")

    def add_row(self, *values: Any) -> None:
        """Append one row; must match the header width."""
        if len(values) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(values)

    def _formatted(self) -> list[list[str]]:
        def render(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        return [[render(v) for v in row] for row in self.rows]

    def to_text(self) -> str:
        """Aligned plain-text rendering."""
        body = self._formatted()
        widths = [
            max(len(str(header)), *(len(row[i]) for row in body))
            if body else len(str(header))
            for i, header in enumerate(self.headers)
        ]
        def line(cells: Sequence[str]) -> str:
            return "  ".join(
                str(cell).ljust(width) for cell, width in zip(cells, widths)
            ).rstrip()

        parts = [self.title, line([str(h) for h in self.headers])]
        parts.append(line(["-" * width for width in widths]))
        parts.extend(line(row) for row in body)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering."""
        body = self._formatted()
        parts = [f"### {self.title}", ""]
        parts.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        parts.append("|" + "|".join("---" for _ in self.headers) + "|")
        parts.extend("| " + " | ".join(row) + " |" for row in body)
        return "\n".join(parts)
