"""Workload traces: record, persist, replay, summarize.

A :class:`WorkloadTrace` freezes a generated workload into an explicit
event list so that (a) the exact same requests can be replayed against
different mechanisms or topologies, and (b) workloads can be shipped
between machines alongside a shared overlay (the paper's multi-machine
protocol).

Trace files are versioned JSON: a header records the provenance the
replay is only valid for — the address width (``bits``), overlay size
(``n_nodes``) and seed (``overlay_seed``) the trace was captured on —
so a replay against the wrong overlay fails on the *header*, with an
actionable message, instead of depending on the incidental
originator-membership check (which an originator-set coincidence
slips past silently). The pre-header format (a bare JSON event list)
still loads, with ``None`` provenance; dynamics (join/leave/policy)
traces are the separate format of :mod:`repro.scenarios.trace`.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..errors import WorkloadError
from ..kademlia.address import target_dtype
from .generators import FileDownload

__all__ = [
    "TRACE_FORMAT",
    "TRACE_NDJSON_FORMAT",
    "TraceSummary",
    "TraceReader",
    "WorkloadTrace",
    "TraceWorkload",
]

#: Format tag written into every request-trace file; bumped on any
#: incompatible layout change so old readers fail loudly, not subtly.
TRACE_FORMAT = "repro-swarm-trace/1"

#: Format tag on the first line of an NDJSON trace (header line, then
#: one event per line). NDJSON is the streaming sibling of
#: :data:`TRACE_FORMAT`: importers write it line-by-line and readers
#: decode it line-by-line, so day-long measured traces never need the
#: whole file's parse tree in memory at once.
TRACE_NDJSON_FORMAT = "repro-swarm-trace/ndjson-1"


def _chunk_dtype(bits: int | None) -> np.dtype:
    """Decoded chunk-address dtype for a recorded address width.

    With provenance present, addresses decode straight into the
    compact dtype the fast kernel's flatten path expects
    (:func:`~repro.kademlia.address.target_dtype`); legacy headerless
    traces (and the >32-bit spaces the vectorized backend refuses
    anyway) keep the historical ``uint64``.
    """
    if bits is not None and bits <= 32:
        return target_dtype(bits)
    return np.dtype(np.uint64)


def _check_header_fields(path, bits, n_nodes, overlay_seed) -> None:
    """Validate a trace header's provenance field types and ranges."""
    for name, value in (("bits", bits), ("n_nodes", n_nodes),
                        ("overlay_seed", overlay_seed)):
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise WorkloadError(
                f"cannot read trace {path}: header field "
                f"{name!r} must be an integer or null, got "
                f"{value!r}"
            )
    if bits is not None and not 1 <= bits <= 64:
        raise WorkloadError(
            f"cannot read trace {path}: header field 'bits' "
            f"must be in [1, 64], got {bits}"
        )


def event_fields(item) -> tuple[int, list]:
    """Validate one decoded event object: ``(originator, chunks)``.

    The strict wire types shared by trace files and ``serve`` request
    lines: the originator, every chunk address and the optional
    ``file_id`` are JSON integers — never bools, floats, strings or
    nested lists — and an event names at least one chunk, through
    either ``chunks`` or its one-address alias ``chunk``. Raises
    :class:`ValueError` with the reason otherwise.
    """
    if type(item) is not dict:
        raise ValueError(f"expected a JSON object, got {type(item).__name__}")
    if "originator" not in item:
        raise ValueError("missing 'originator'")
    originator = item["originator"]
    if type(originator) is not int:
        raise ValueError(f"originator must be an int address, got "
                         f"{reprlib.repr(originator)}")
    if "file_id" in item and type(item["file_id"]) is not int:
        raise ValueError(f"file_id must be an int, got "
                         f"{reprlib.repr(item['file_id'])}")
    if "chunks" in item:
        if "chunk" in item:
            raise ValueError("give 'chunks' or 'chunk', not both")
        chunks = item["chunks"]
        if type(chunks) is not list:
            raise ValueError(f"'chunks' must be a list of int addresses, "
                             f"got {reprlib.repr(chunks)}")
    elif "chunk" in item:
        chunks = [item["chunk"]]
    else:
        raise ValueError("missing 'chunks'")
    if not chunks:
        raise ValueError("a request needs at least one chunk")
    for chunk in chunks:
        if type(chunk) is not int:
            raise ValueError(f"chunk addresses must be ints, got "
                             f"{reprlib.repr(chunk)}")
    return originator, chunks


def _decode_event(item, dtype: np.dtype, path) -> FileDownload:
    """One raw event dict -> FileDownload, with a path-naming error."""
    try:
        originator, chunks = event_fields(item)
        if "file_id" not in item:
            raise ValueError("missing 'file_id'")
        return FileDownload(
            file_id=item["file_id"],
            originator=originator,
            chunk_addresses=np.asarray(chunks, dtype=dtype),
        )
    except (ValueError, OverflowError) as error:
        raise WorkloadError(
            f"cannot read trace {path}: malformed event ({error})"
        ) from None


@dataclass(frozen=True)
class TraceSummary:
    """Shape statistics of a trace."""

    n_files: int
    total_chunks: int
    distinct_originators: int
    min_file_chunks: int
    max_file_chunks: int
    mean_file_chunks: float

    def __str__(self) -> str:
        return (
            f"{self.n_files} files, {self.total_chunks} chunks, "
            f"{self.distinct_originators} distinct originators, "
            f"file size {self.min_file_chunks}..{self.max_file_chunks} "
            f"(mean {self.mean_file_chunks:.1f})"
        )


class WorkloadTrace:
    """An explicit, immutable list of download events.

    ``bits``, ``n_nodes`` and ``overlay_seed`` are the provenance the
    trace was captured on; they are ``None`` for traces built in
    memory without an overlay at hand (and for files in the legacy
    headerless format), in which case replay-side validation can only
    fall back to the membership checks.
    """

    def __init__(self, events: Sequence[FileDownload], *,
                 bits: int | None = None,
                 n_nodes: int | None = None,
                 overlay_seed: int | None = None) -> None:
        if len(events) == 0:
            raise WorkloadError("a trace needs at least one event")
        self._events = tuple(events)
        self.bits = None if bits is None else int(bits)
        self.n_nodes = None if n_nodes is None else int(n_nodes)
        self.overlay_seed = (
            None if overlay_seed is None else int(overlay_seed)
        )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FileDownload]:
        return iter(self._events)

    def __getitem__(self, index: int) -> FileDownload:
        return self._events[index]

    @property
    def events(self) -> tuple[FileDownload, ...]:
        """The trace's events in order."""
        return self._events

    def summary(self) -> TraceSummary:
        """Shape statistics for reports."""
        sizes = np.array([event.n_chunks for event in self._events])
        return TraceSummary(
            n_files=len(self._events),
            total_chunks=int(sizes.sum()),
            distinct_originators=len(
                {event.originator for event in self._events}
            ),
            min_file_chunks=int(sizes.min()),
            max_file_chunks=int(sizes.max()),
            mean_file_chunks=float(sizes.mean()),
        )

    def originator_counts(self) -> dict[int, int]:
        """Downloads issued per originator."""
        counts: dict[int, int] = {}
        for event in self._events:
            counts[event.originator] = counts.get(event.originator, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Persistence

    def save(self, path: str | Path) -> None:
        """Write the trace as versioned JSON (header + event list)."""
        payload = {
            "format": TRACE_FORMAT,
            "bits": self.bits,
            "n_nodes": self.n_nodes,
            "overlay_seed": self.overlay_seed,
            "events": [
                {
                    "file_id": event.file_id,
                    "originator": event.originator,
                    "chunks": [int(a) for a in event.chunk_addresses],
                }
                for event in self._events
            ],
        }
        Path(path).write_text(json.dumps(payload))

    def save_ndjson(self, path: str | Path) -> None:
        """Write the trace as NDJSON: a header line, then one event
        per line. Events are serialized one at a time, so writing is
        as bounded-memory as :class:`TraceReader`'s reading."""
        with Path(path).open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "format": TRACE_NDJSON_FORMAT,
                "bits": self.bits,
                "n_nodes": self.n_nodes,
                "overlay_seed": self.overlay_seed,
            }) + "\n")
            for event in self._events:
                handle.write(json.dumps({
                    "file_id": event.file_id,
                    "originator": event.originator,
                    "chunks": [int(a) for a in event.chunk_addresses],
                }) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadTrace":
        """Read a trace written by :meth:`save` or :meth:`save_ndjson`.

        Accepts the legacy bare-list payload (no header, ``None``
        provenance); any other shape — a dict without the
        :data:`TRACE_FORMAT` tag, a mismatched format version, a
        missing event list, invalid JSON — raises
        :class:`~repro.errors.WorkloadError` naming the problem.

        NDJSON traces decode one line at a time: each raw event's
        parse tree is dropped as soon as its compact
        :class:`FileDownload` exists, so peak memory is the decoded
        trace plus one line — not the whole file's JSON tree. That is
        what lets imported day-long gateway traces load at all.
        """
        reader = TraceReader(path)
        return cls(
            list(reader.events()),
            bits=reader.bits, n_nodes=reader.n_nodes,
            overlay_seed=reader.overlay_seed,
        )


class TraceReader:
    """Lazy access to a trace file on disk.

    The constructor parses only enough to learn the format and the
    provenance header (``bits``, ``n_nodes``, ``overlay_seed``);
    :meth:`events` then decodes events on demand. For NDJSON traces
    that is true streaming — one line's parse tree in memory at a
    time, which is how ``repro-swarm serve`` replays day-long
    imported traces in bounded memory. Single-document and legacy
    traces cannot stream (one JSON value holds every event), so the
    constructor parses the document once and :meth:`events` decodes
    from the retained tree.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.bits: int | None = None
        self.n_nodes: int | None = None
        self.overlay_seed: int | None = None
        self.ndjson = False
        self._raw_events: list | None = None
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                first = handle.readline()
        except OSError as error:
            raise WorkloadError(
                f"cannot read trace {path}: {error}"
            ) from None
        # save() emits one-line documents, so the first line usually
        # parses whole; a multi-line (pretty-printed) document fails
        # here and is re-parsed in full below.
        try:
            payload = json.loads(first) if first.strip() else None
        except json.JSONDecodeError:
            payload = None
        if (isinstance(payload, dict)
                and payload.get("format") == TRACE_NDJSON_FORMAT):
            self.ndjson = True
            self.bits = payload.get("bits")
            self.n_nodes = payload.get("n_nodes")
            self.overlay_seed = payload.get("overlay_seed")
            _check_header_fields(self.path, self.bits, self.n_nodes,
                                 self.overlay_seed)
            return
        if payload is None:
            try:
                payload = json.loads(self.path.read_text())
            except OSError as error:
                raise WorkloadError(
                    f"cannot read trace {path}: {error}"
                ) from None
            except json.JSONDecodeError as error:
                raise WorkloadError(
                    f"cannot read trace {path}: not valid JSON "
                    f"({error}); the file may be truncated or corrupt"
                ) from None
        self._parse_document(payload)

    def _parse_document(self, payload) -> None:
        """Adopt a single-document (or legacy bare-list) payload."""
        path = self.path
        if isinstance(payload, list):
            self._raw_events = payload  # legacy headerless format
            return
        if not isinstance(payload, dict):
            raise WorkloadError(
                f"cannot read trace {path}: expected an event list or "
                f"a {TRACE_FORMAT} document, got "
                f"{type(payload).__name__}"
            )
        fmt = payload.get("format")
        if fmt != TRACE_FORMAT:
            raise WorkloadError(
                f"cannot read trace {path}: format tag {fmt!r} is "
                f"not {TRACE_FORMAT!r} (is this a dynamics trace "
                f"or a file from a newer version?)"
            )
        raw_events = payload.get("events")
        if not isinstance(raw_events, list):
            raise WorkloadError(
                f"cannot read trace {path}: missing or non-list "
                f"'events'"
            )
        self.bits = payload.get("bits")
        self.n_nodes = payload.get("n_nodes")
        self.overlay_seed = payload.get("overlay_seed")
        _check_header_fields(path, self.bits, self.n_nodes,
                             self.overlay_seed)
        self._raw_events = raw_events

    def events(self) -> Iterator[FileDownload]:
        """Decode the trace's events in order.

        NDJSON traces stream straight off the file handle; each
        yielded event is the only decoded state held.
        """
        dtype = _chunk_dtype(self.bits)
        if not self.ndjson:
            assert self._raw_events is not None
            for item in self._raw_events:
                yield _decode_event(item, dtype, self.path)
            return
        with self.path.open("r", encoding="utf-8") as handle:
            handle.readline()  # the header line, already parsed
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    item = json.loads(line)
                except json.JSONDecodeError as error:
                    raise WorkloadError(
                        f"cannot read trace {self.path}: line "
                        f"{lineno} is not valid JSON ({error}); the "
                        f"file may be truncated or corrupt"
                    ) from None
                yield _decode_event(item, dtype, self.path)


class TraceWorkload:
    """Adapter replaying a frozen trace through the workload interface.

    Simulators consume workloads via ``events(nodes, space)``; this
    wrapper satisfies that interface from a :class:`WorkloadTrace`.
    Replays against a different overlay than the trace was captured
    for are a user error worth failing loudly on: the trace's
    provenance header (when present) is checked against the target
    population and space first, and every recorded originator must
    exist in the population either way.
    """

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self.n_files = len(trace)

    def events(self, nodes, space) -> Iterator[FileDownload]:
        """Yield the trace's events after validating the population."""
        trace = self.trace
        if trace.bits is not None and trace.bits != space.bits:
            raise WorkloadError(
                f"trace was recorded in a {trace.bits}-bit space but "
                f"this replay runs in {space.bits} bits; replay traces "
                f"at the bits they were generated for"
            )
        if trace.n_nodes is not None and trace.n_nodes != len(nodes):
            raise WorkloadError(
                f"trace was recorded over {trace.n_nodes} nodes but "
                f"this overlay has {len(nodes)}; replay traces against "
                f"the overlay they were generated for"
            )
        population = set(int(n) for n in nodes)
        for event in self.trace:
            if event.originator not in population:
                raise WorkloadError(
                    f"trace originator {event.originator} is not a node "
                    "of this overlay; replay traces against the overlay "
                    "seed they were generated for"
                )
            # A FileDownload always has at least one chunk (enforced
            # at construction), so the max is well-defined.
            if int(event.chunk_addresses.max()) >= space.size:
                raise WorkloadError(
                    f"trace chunk address {int(event.chunk_addresses.max())} "
                    f"outside the {space.bits}-bit space"
                )
            yield event

    def materialize(self, nodes, space) -> list[FileDownload]:
        """The validated event list."""
        return list(self.events(nodes, space))
