"""Unit tests for table rendering (repro.analysis.reports)."""

from __future__ import annotations

import pytest

from repro.analysis.reports import Table
from repro.errors import ConfigurationError


@pytest.fixture()
def table() -> Table:
    table = Table(title="Demo", headers=["name", "value"])
    table.add_row("alpha", 1.23456)
    table.add_row("beta", 7)
    return table


class TestTable:
    def test_requires_columns(self):
        with pytest.raises(ConfigurationError):
            Table(title="x", headers=[])

    def test_row_width_enforced(self, table):
        with pytest.raises(ConfigurationError, match="columns"):
            table.add_row("only-one")

    def test_text_rendering(self, table):
        text = table.to_text()
        assert "Demo" in text
        assert "alpha" in text
        assert "1.2346" in text  # floats rendered to 4 decimals
        assert "7" in text

    def test_text_alignment(self, table):
        lines = table.to_text().splitlines()
        header, separator = lines[1], lines[2]
        assert len(separator) >= len(header.rstrip())

    def test_markdown_rendering(self, table):
        markdown = table.to_markdown()
        assert markdown.startswith("### Demo")
        assert "| name | value |" in markdown
        assert "| alpha | 1.2346 |" in markdown

    def test_text_columns_line_up(self, table):
        # The first column is as wide as "alpha", plus a two-space gap.
        lines = table.to_text().splitlines()
        assert [line[7:] for line in lines[1:]] == [
            "value", "------", "1.2346", "7"]

    def test_integers_keep_their_form(self, table):
        assert "| beta | 7 |" in table.to_markdown()
        assert "7.0000" not in table.to_text()

    def test_markdown_has_a_separator_per_column(self, table):
        lines = table.to_markdown().splitlines()
        assert lines[3] == "|---|---|"
        assert len(lines) == 4 + len(table.rows)

    def test_empty_table_renders(self):
        table = Table(title="empty", headers=["a", "b"])
        assert "empty" in table.to_text()
