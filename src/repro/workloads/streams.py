"""Workload streams: bounded micro-batches of download events.

The batch pipeline materializes a whole workload before routing it;
a :class:`WorkloadStream` instead yields *micro-batches* — bounded
lists of :class:`~repro.workloads.generators.FileDownload`s — so the
engine can route arbitrarily long request streams in memory bounded
by the batch size, not the stream length. This is the workload-side
half of the streaming contract (``FastSimulation.run_stream`` and
``repro-swarm serve`` are the engine side).

Two adapters cover the generated and recorded sources:

- :class:`GeneratorStream` chunks any RNG workload generator's
  ``events()`` iterator. Generators draw per-file chunk addresses
  lazily (sizes are sampled up front in one call), so chunking their
  event stream is *RNG-exact*: the batched draws are bit-identical
  to the materialized path, and streaming results match batch
  results exactly.
- :class:`TraceStream` replays a recorded
  :class:`~repro.workloads.traces.WorkloadTrace` file line by line
  (one decoded batch in memory at a time).

:class:`RequestStream` is the odd one out: it decodes live NDJSON
request lines (one JSON object per line,
``{"originator": <address>, "chunks": [...]}``, the wire format of
``repro-swarm serve``) and yields each micro-batch as
:class:`RequestBatch` kernel columns rather than a list of
``FileDownload`` events, so it is not a :class:`WorkloadStream`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import (
    IO,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..errors import WorkloadError
from .generators import FileDownload
from .traces import (
    TraceReader,
    _chunk_dtype,
    event_fields,
    replay_events,
)

__all__ = [
    "WorkloadStream",
    "GeneratorStream",
    "TraceStream",
    "RequestBatch",
    "RequestStream",
    "parse_request_line",
]

#: Default micro-batch size (files per batch) for stream adapters.
DEFAULT_MAX_BATCH = 256


@runtime_checkable
class WorkloadStream(Protocol):
    """An iterator of bounded micro-batches of download events.

    ``batches(nodes, space)`` mirrors the workload ``events()``
    signature: *nodes* is the overlay's address array, *space* its
    :class:`~repro.kademlia.address.AddressSpace`. Every yielded
    batch is a non-empty sequence of at most ``max_batch`` events;
    adapters must never hold more than one batch's events at a time.
    """

    #: Upper bound on the number of files per yielded batch.
    max_batch: int

    def batches(
        self, nodes, space
    ) -> Iterator[Sequence[FileDownload]]:  # pragma: no cover
        """Yield the stream's events in bounded micro-batches."""
        ...


def _check_max_batch(max_batch: int) -> int:
    max_batch = int(max_batch)
    if max_batch < 1:
        raise WorkloadError(
            f"max_batch must be at least 1, got {max_batch}"
        )
    return max_batch


def _chunk_iterator(
    events: Iterator[FileDownload], max_batch: int
) -> Iterator[list[FileDownload]]:
    """Group an event iterator into lists of at most *max_batch*."""
    batch: list[FileDownload] = []
    for event in events:
        batch.append(event)
        if len(batch) >= max_batch:
            yield batch
            batch = []
    if batch:
        yield batch


class GeneratorStream:
    """Chunk an RNG workload generator into micro-batches.

    Wraps any object with ``events(nodes, space)`` (for example
    :class:`~repro.workloads.generators.DownloadWorkload`). Because
    generators sample file sizes up front and draw chunk addresses
    per file, slicing the event iterator does not perturb the RNG
    stream — the batches concatenate to exactly the materialized
    workload, which the streaming golden tests pin bit-for-bit.
    """

    def __init__(self, workload, *,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        self.workload = workload
        self.max_batch = _check_max_batch(max_batch)

    def batches(self, nodes, space) -> Iterator[list[FileDownload]]:
        yield from _chunk_iterator(
            self.workload.events(nodes, space), self.max_batch
        )


class TraceStream:
    """Replay a recorded trace file in micro-batches.

    Validation matches :class:`~repro.workloads.traces.TraceWorkload`
    replay (:func:`~repro.workloads.traces.replay_events`): the
    provenance header is checked against the target overlay, every
    originator must be a population member, and chunk addresses must
    fit the space. Events decode one line at a time, so a day-long
    imported trace streams in memory bounded by the batch size.
    """

    def __init__(self, path: str | Path, *,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        self.path = Path(path)
        self.max_batch = _check_max_batch(max_batch)
        self.reader = TraceReader(path)

    def batches(self, nodes, space) -> Iterator[list[FileDownload]]:
        yield from _chunk_iterator(
            replay_events(self.reader.events(), self.reader.header,
                          nodes, space),
            self.max_batch,
        )


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
    file object, a list in tests. Unlike the :class:`WorkloadStream`
    adapters, :meth:`batches` yields :class:`RequestBatch` columns,
    not :class:`~repro.workloads.generators.FileDownload` lists: each
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
