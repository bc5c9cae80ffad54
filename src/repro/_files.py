"""The one rule for opening the text files a command reads or writes.

A file that cannot be opened, a line that is not UTF-8, or a JSON
document that does not parse raises :class:`~repro.errors.InputError`
naming the path (and the line), which the CLI refuses in one line
with exit status 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, Iterator

from .errors import InputError

__all__ = ["TextLines", "open_output", "read_json"]


class TextLines:
    """The UTF-8 lines of *path* (``-`` is stdin), decoded one by one;
    the file opens at construction, before any work starts."""

    def __init__(self, path: str | Path, what: str) -> None:
        self.what = what
        self.name = "<stdin>" if str(path) == "-" else str(path)
        try:
            self._handle = (sys.stdin.buffer if str(path) == "-"
                            else open(path, "rb"))
        except OSError as error:
            raise InputError(
                f"cannot read {what} {path}: {error.strerror or error}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        for lineno, line in enumerate(self._handle, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as error:
                raise InputError(
                    f"cannot read {self.what} {self.name}: line {lineno} "
                    f"is not UTF-8 text ({error.reason})"
                ) from None

    def __enter__(self) -> "TextLines":
        return self

    def __exit__(self, *exc) -> None:
        if self._handle is not sys.stdin.buffer:
            self._handle.close()


def open_output(path: str | Path, what: str) -> IO[str]:
    """*path* opened for writing UTF-8 text, refusing it by name."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as error:
        raise InputError(
            f"cannot write {what} {path}: {error.strerror or error}"
        ) from None


def read_json(path: str | Path, what: str):
    """The JSON document in *path*, refused by name when the file
    cannot be read or does not parse."""
    with TextLines(path, what) as lines:
        text = "".join(lines)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise InputError(
            f"cannot read {what} {path}: not JSON ({error})") from None
