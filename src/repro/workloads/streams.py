"""Request streams: the serve wire format, decoded in micro-batches.

:class:`RequestStream` decodes live NDJSON request lines (one JSON
object per line, ``{"originator": <address>, "chunks": [...]}``, the
wire format of ``repro-swarm serve``) and yields each micro-batch of
at most ``max_batch`` lines as :class:`RequestBatch` kernel columns,
so the daemon routes an arbitrarily long stream in memory bounded by
the batch size, not the stream length.

A micro-batch is decoded by the first of three decoders that accepts
it. :func:`_decode_dumped` reads the two layouts ``json.dumps`` writes
(``{"originator": N, "chunks": [N, N]}``, and ``{"file_id": N,
"originator": N, "chunks": [N]}`` as ``trace generate`` and ``trace
import-requests`` write it) straight from the batch's bytes in one
vectorized pass. :func:`_decode_batch` takes every other valid layout
(other separators or key order, the ``chunk`` alias, extra keys,
CRLF) with one ``json.loads``. :func:`parse_request_line`, line by
line, is the reference both are checked against, and the path that
names a bad line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ..errors import WorkloadError
from .generators import FileDownload
from .traces import _chunk_dtype, event_fields

__all__ = ["RequestBatch", "RequestStream", "parse_request_line"]

#: Default micro-batch size (requests per batch).
DEFAULT_MAX_BATCH = 256


def _check_max_batch(max_batch: int) -> int:
    max_batch = int(max_batch)
    if max_batch < 1:
        raise WorkloadError(
            f"max_batch must be at least 1, got {max_batch}"
        )
    return max_batch


#: The keys a request object may carry on the wire.
_WIRE_KEYS = frozenset({"originator", "chunks", "chunk", "file_id"})

_ORIGINATOR = itemgetter("originator")
_CHUNKS = itemgetter("chunks")


def _request_fields(item, where: str) -> tuple[int, list]:
    """Validate one decoded request object: ``(originator, chunks)``.

    The strict wire types of :func:`~repro.workloads.traces.event_fields`,
    refused as a ``bad request line`` naming *where*.
    """
    try:
        return event_fields(item)
    except ValueError as error:
        raise WorkloadError(f"bad request line: {error}{where}") from None


def parse_request_line(line: str, *, bits: int | None = None,
                       lineno: int | None = None,
                       file_id: int = 0) -> FileDownload:
    """Decode one NDJSON request line into a download event.

    The wire format of ``repro-swarm serve``::

        {"originator": 40163, "chunks": [12, 993, 57120]}

    ``file_id`` is optional on the wire (requests are anonymous by
    default); a single address may be sent as ``"chunk": 12``. Every
    address and id must be a JSON integer, and chunk addresses must
    fit the *bits*-bit space (64 bits when *bits* is ``None``);
    anything else raises :class:`~repro.errors.WorkloadError` naming
    *lineno*. This is the per-line reference the batched decoder of
    :class:`RequestStream` is checked against.
    """
    where = "" if lineno is None else f" (line {lineno})"
    try:
        item = json.loads(line)
    except RecursionError:
        raise WorkloadError(
            f"bad request line: not valid JSON (nested too deeply){where}"
        ) from None
    except ValueError as error:
        reason = (f"{error.msg} at column {error.colno}"
                  if isinstance(error, json.JSONDecodeError)
                  else str(error))
        raise WorkloadError(
            f"bad request line: not valid JSON ({reason}){where}"
        ) from None
    originator, chunks = _request_fields(item, where)
    width = 64 if bits is None else min(bits, 64)
    for chunk in chunks:
        if not 0 <= chunk < 1 << width:
            raise WorkloadError(
                f"request chunk address {chunk} outside the "
                f"{width}-bit space{where}"
            )
    return FileDownload(
        file_id=item.get("file_id", file_id),
        originator=originator,
        chunk_addresses=np.asarray(chunks, dtype=_chunk_dtype(bits)),
    )


@dataclass(frozen=True)
class RequestBatch:
    """One decoded micro-batch of requests, as kernel columns.

    ``origins`` holds each request's dense index into the serving
    overlay's node array, ``sizes`` its chunk count, ``targets`` the
    concatenated chunk addresses (compact target dtype of the space)
    and ``linenos`` its 1-based input line. ``len(batch)`` is the
    number of requests.
    """

    origins: np.ndarray
    sizes: np.ndarray
    targets: np.ndarray
    linenos: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


def _decode_batch(lines: Sequence[str], ranked: np.ndarray,
                  order: np.ndarray, space):
    """Decode a micro-batch with one ``json.loads``, or return ``None``.

    Each line is wrapped in its own one-element array, so the batch
    text is ``[[L1],\\n[L2],\\n...]``. A raw newline cannot sit inside
    a JSON string, so no string crosses a separator. The result is
    accepted only when it holds exactly one array per line, each
    holding exactly one object whose keys are wire keys and whose
    values are ints or lists of ints. Two lines could only decode as
    one request through a list nested one level deeper than that, so
    under these checks every object is exactly what its own line
    decodes to. ``None`` — any other shape, a bad value, an unknown
    originator or an out-of-space address — sends the caller to the
    per-line reference, which names the bad line.

    Returns ``(origins, sizes, targets)``: dense origin indices (via
    one ``searchsorted`` over *ranked*, the sorted node addresses,
    mapped back through *order*), chunk counts, and int64 targets.
    """
    try:
        wrapped = json.loads("[[" + "],\n[".join(lines) + "]]")
    except (ValueError, RecursionError):
        return None
    if (len(wrapped) != len(lines)
            or set(map(type, wrapped)) != {list}
            or set(map(len, wrapped)) != {1}):
        return None
    items = list(chain.from_iterable(wrapped))
    if set(map(type, items)) != {dict}:
        return None
    fields = _wire_fields(items)
    if fields is None:
        return None
    origins, chunk_lists = fields
    if (set(map(type, origins)) != {int}
            or set(map(type, chunk_lists)) != {list}
            or not all(chunk_lists)):
        return None
    flat = list(chain.from_iterable(chunk_lists))
    if set(map(type, flat)) != {int}:
        return None
    try:
        wanted = np.array(origins, dtype=np.int64)
        targets = np.array(flat, dtype=np.int64)
    except OverflowError:
        return None
    if targets.min() < 0 or targets.max() >= space.size:
        return None
    rank = np.searchsorted(ranked, wanted)
    np.minimum(rank, len(ranked) - 1, out=rank)
    if not np.array_equal(ranked[rank], wanted):
        return None
    sizes = np.fromiter(map(len, chunk_lists), dtype=np.int64,
                        count=len(chunk_lists))
    return order[rank], sizes, targets


#: The two request layouts that ``json.dumps`` writes and repro's own
#: writers emit, as ``(prefix, line, head)``: *line* is the layout of a
#: one-chunk request with every integer collapsed to one ``0``, and
#: *head* counts the integers before the first chunk address. The
#: second (with ``file_id``) is what ``trace generate`` and ``trace
#: import-requests`` write.
_DUMPED_LAYOUTS = (
    ('{"originator": ', b'{"originator": 0, "chunks": [0]}\n', 1),
    ('{"file_id": ',
     b'{"file_id": 0, "originator": 0, "chunks": [0]}\n', 2),
)

#: The widest integer the byte decoder reads: any 18 digits fit int64.
_MAX_DIGITS = 18
_POWERS = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
_PLACES = np.arange(_MAX_DIGITS)[:, None]
_ZERO, _NEWLINE = ord("0"), ord("\n")
#: A later chunk address, collapsed, and the three bytes before it.
_CHAINED = np.frombuffer(b"0, ", dtype=np.uint8)[:, None]
_BEFORE = np.arange(3, 0, -1)[:, None]


def _decode_dumped(lines: Sequence[str], ranked: np.ndarray,
                   order: np.ndarray, space):
    """Decode a micro-batch straight from its bytes, or return ``None``.

    Accepts a batch only when every line is, byte for byte, the one of
    :data:`_DUMPED_LAYOUTS` its first line opens with, ends in its only
    ``\\n``, holds only unsigned integers of at most
    :data:`_MAX_DIGITS` digits without a leading zero, names addresses
    inside *space* and an originator that is a node. Such a line
    decodes to exactly what :func:`parse_request_line` makes of it.
    Anything else gives ``None`` and goes to :func:`_decode_batch`; a
    batch whose first line opens with neither prefix does so before any
    array is built.

    One pass over the joined bytes. The digit runs are the transitions
    of a digit mask. Each run collapses to one ``0``; every chunk
    address after a line's first must follow the previous run by
    exactly ``", "``, and once all ``", 0"`` are cut the rest must be
    the layout repeated once per line. The integers are summed by
    place value from each run's right end, and each line's run count
    is a ``searchsorted`` of the run starts over the newline offsets.
    Returns the columns of :func:`_decode_batch`.
    """
    first = lines[0]
    for prefix, layout, head in _DUMPED_LAYOUTS:
        if first.startswith(prefix):
            break
    else:
        return None
    text = "".join(lines)
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    n = len(lines)
    newlines = np.fromiter(map(len, lines), np.int64, n).cumsum() - 1
    if text.count("\n") != n or (data[newlines] != _NEWLINE).any():
        return None
    digit = (data - _ZERO) < 10
    # The text opens with "{" and closes with "\n", so the transitions
    # alternate: run start, run end.
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    starts, ends = edges[0::2], edges[1::2]
    widths = ends - starts
    width = int(widths.max()) if widths.size else 0
    if (not 0 < width <= _MAX_DIGITS
            or ((data[starts] == _ZERO) & (widths > 1)).any()):
        return None
    keep = ~digit
    keep[starts] = True
    residual = data[keep]
    # Where each run's kept byte lands in the residual.
    runs = np.arange(starts.size)
    marks = starts - widths.cumsum() + widths + runs
    residual[marks] = _ZERO
    # Each run's position within its line.
    closed = starts.searchsorted(newlines)
    counts = closed.copy()
    counts[1:] -= closed[:-1]
    firsts = closed - counts
    position = runs - firsts.repeat(counts)
    # Every later chunk's "0" must directly follow "0, ". Each ", 0"
    # the cut removes holds one run, so a rest equal to the layout
    # means the cut removed exactly the later chunks, and each sat
    # straight after its line's previous chunk.
    if ((residual[marks[position > head] - _BEFORE] != _CHAINED).any()
            or residual.tobytes().replace(b", 0", b"") != layout * n):
        return None
    # Row p holds each run's digit p places from its right end.
    places = _PLACES[:width]
    digits = data[ends - 1 - places] - _ZERO
    digits[places >= widths] = 0
    values = _POWERS[:width] @ digits.astype(np.int64)
    targets = values[position >= head]
    if int(targets.max()) >= space.size:
        return None
    wanted = values[firsts + (head - 1)]
    rank = ranked.searchsorted(wanted)
    np.minimum(rank, len(ranked) - 1, out=rank)
    if (ranked[rank] != wanted).any():
        return None
    return order[rank], counts - head, targets


def _wire_fields(items: list[dict]):
    """``(originators, chunk lists)`` of decoded requests, or ``None``.

    The common ``{"originator", "chunks"}`` shape is read column-wise;
    requests using the ``chunk`` alias or a ``file_id`` go through
    :func:`_request_fields` one at a time. Any key outside the wire
    keys gives ``None``.
    """
    if set(map(len, items)) == {2}:
        try:
            return list(map(_ORIGINATOR, items)), list(map(_CHUNKS, items))
        except KeyError:
            pass
    origins, chunk_lists = [], []
    for item in items:
        if not item.keys() <= _WIRE_KEYS:
            return None
        try:
            origin, chunks = _request_fields(item, "")
        except WorkloadError:
            return None
        origins.append(origin)
        chunk_lists.append(chunks)
    return origins, chunk_lists


def _decode_lines(lines: Sequence[str], linenos: Sequence[int],
                  index: dict[int, int], space):
    """The per-line reference: :func:`parse_request_line` + membership.

    Raises :class:`~repro.errors.WorkloadError` naming the first bad
    line; otherwise returns the same columns as :func:`_decode_batch`.
    """
    origins: list[int] = []
    parts: list[np.ndarray] = []
    for line, lineno in zip(lines, linenos):
        event = parse_request_line(line, bits=space.bits, lineno=lineno,
                                   file_id=lineno - 1)
        origin = index.get(event.originator)
        if origin is None:
            raise WorkloadError(
                f"request originator {event.originator} is not a node "
                f"of this overlay (line {lineno})"
            )
        origins.append(origin)
        parts.append(event.chunk_addresses)
    sizes = np.array([part.size for part in parts], dtype=np.int64)
    return (np.array(origins, dtype=np.int64), sizes,
            np.concatenate(parts))


def _nonblank_batches(lines: Iterable[str], max_batch: int
                      ) -> Iterator[tuple[list[str], list[int]]]:
    """Group non-blank lines into ``(lines, linenos)`` of *max_batch*."""
    batch: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            batch.append(line)
            linenos.append(lineno)
            if len(batch) == max_batch:
                yield batch, linenos
                batch, linenos = [], []
    if batch:
        yield batch, linenos


class RequestStream:
    """Decode live NDJSON request lines (the serve wire format).

    *lines* is any iterable of text lines — ``sys.stdin``, a socket
    file object, a list in tests. :meth:`batches` yields
    :class:`RequestBatch` columns, not per-request objects: each
    micro-batch of up to ``max_batch`` non-blank lines decodes straight
    into the kernel's origin/size/target columns, from its bytes when
    every line has one of the two ``json.dumps`` layouts of
    :func:`_decode_dumped`, else with one ``json.loads``
    (:func:`_decode_batch`). Blank lines are skipped but keep their
    line numbers. A batch neither batched decoder fully accepts is
    decoded again line by line through :func:`parse_request_line`,
    which raises
    :class:`~repro.errors.WorkloadError` naming the first bad line
    (invalid JSON, a wrong wire type, an originator that is not a node
    of the overlay, or an address outside the space); that batch is
    refused whole.
    """

    def __init__(self, lines: Iterable[str] | IO[str], *,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        self.lines = lines
        self.max_batch = _check_max_batch(max_batch)

    def batches(self, nodes, space) -> Iterator[RequestBatch]:
        nodes = np.asarray(nodes).astype(np.int64)
        order = np.argsort(nodes, kind="stable")
        ranked = nodes[order]
        index = {int(address): i for i, address in enumerate(nodes)}
        target_dt = _chunk_dtype(space.bits)
        for lines, linenos in _nonblank_batches(self.lines,
                                                self.max_batch):
            columns = None
            if len(ranked):
                columns = _decode_dumped(lines, ranked, order, space)
                if columns is None:
                    columns = _decode_batch(lines, ranked, order, space)
            if columns is None:
                columns = _decode_lines(lines, linenos, index, space)
            origins, sizes, targets = columns
            yield RequestBatch(origins, sizes, targets.astype(target_dt),
                               np.asarray(linenos, dtype=np.int64))
