"""The one rule for opening the files a command reads or writes."""

from __future__ import annotations

import io
import re
import sys
from types import SimpleNamespace

import pytest

from repro._files import TextLines, open_output, read_json
from repro.errors import InputError


def named(path) -> str:
    """A pattern matching *path* literally."""
    return re.escape(str(path))


class TestTextLines:
    def test_decodes_each_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("one\nzwei ü\n".encode())
        with TextLines(path, "input") as lines:
            assert list(lines) == ["one\n", "zwei ü\n"]

    def test_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(
            buffer=io.BytesIO(b"a\nb\n")))
        lines = TextLines("-", "input")
        assert lines.name == "<stdin>"
        assert list(lines) == ["a\n", "b\n"]

    def test_missing_file_is_refused_at_construction(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(InputError,
                           match=f"cannot read input {named(path)}: "):
            TextLines(path, "input")

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"fine\n\xff\nnever reached\n")
        seen = []
        with TextLines(path, "input") as lines:
            with pytest.raises(InputError,
                               match=r"line 2 is not UTF-8 text"):
                seen.extend(lines)
        assert seen == ["fine\n"]


def test_open_output_refuses_a_missing_directory(tmp_path):
    path = tmp_path / "absent" / "out.txt"
    with pytest.raises(InputError,
                       match=f"cannot write report {named(path)}"):
        open_output(path, "report")
    assert not path.parent.exists()


class TestReadJson:
    def test_reads_the_document(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2],\n "b": null}\n')
        assert read_json(path, "record") == {"a": [1, 2], "b": None}

    @pytest.mark.parametrize("content, message", [
        (b'{"a": ', "not JSON"),
        (b"", "not JSON"),
        (b"[" * 100_000, "not JSON"),
        (b'{"a":\n"\xff"}', "line 2 is not UTF-8"),
    ], ids=["truncated", "empty", "too-deep", "not-utf8"])
    def test_unreadable_document_is_refused_by_name(self, tmp_path,
                                                    content, message):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(
                InputError,
                match=f"cannot read record {named(path)}: .*{message}"):
            read_json(path, "record")

    def test_missing_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(InputError,
                           match=f"cannot read record {named(path)}"):
            read_json(path, "record")
