"""Request streams: the serve wire format, decoded in micro-batches.

:class:`RequestStream` decodes live NDJSON request lines (one JSON
object per line, ``{"originator": <address>, "chunks": [...]}``, the
wire format of ``repro-swarm serve``) and yields each micro-batch of
at most ``max_batch`` lines as :class:`RequestBatch` kernel columns,
so the daemon routes an arbitrarily long stream in memory bounded by
the batch size, not the stream length.
:func:`parse_request_line` is the per-line reference decoder the
batched one is checked against.
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
    micro-batch of up to ``max_batch`` non-blank lines decodes with
    one ``json.loads`` straight into the kernel's origin/size/target
    columns. Blank lines are skipped but keep their line numbers. A
    batch the batched decoder does not fully accept is decoded again
    line by line through :func:`parse_request_line`, which raises
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
                columns = _decode_batch(lines, ranked, order, space)
            if columns is None:
                columns = _decode_lines(lines, linenos, index, space)
            origins, sizes, targets = columns
            yield RequestBatch(origins, sizes, targets.astype(target_dt),
                               np.asarray(linenos, dtype=np.int64))
