"""Workload traces: record, persist, replay, summarize.

A :class:`WorkloadTrace` freezes a generated workload into an explicit
event list so that (a) the exact same requests can be replayed against
different mechanisms or topologies, and (b) workloads can be shipped
between machines alongside a shared overlay (the paper's multi-machine
protocol).

A trace file is headed NDJSON (:data:`TRACE_NDJSON_FORMAT`): a header
line, then one event per line, which is also the serve wire format, so
``repro-swarm serve`` streams a day-long imported trace without ever
holding the whole file in memory. The header (a :class:`TraceHeader`)
records the address width, overlay size and seed the trace was
captured on, so a replay against the wrong overlay fails on the
*header*, with an actionable message, instead of depending on the
incidental originator-membership check (which an originator-set
coincidence slips past silently). A file whose first line is not
such a header is refused. Dynamics traces
(:mod:`repro.scenarios.trace`) carry the same header fields under
:data:`DYNAMICS_TRACE_FORMAT`.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .._files import TextLines, open_output
from ..errors import WorkloadError
from ..kademlia.address import target_dtype
from .generators import FileDownload

__all__ = [
    "DYNAMICS_TRACE_FORMAT",
    "TRACE_NDJSON_FORMAT",
    "TraceHeader",
    "TraceSummary",
    "WorkloadTrace",
    "TraceWorkload",
]

#: Format tag on the first line of a request trace (header line, then
#: one event per line); bumped on any incompatible layout change so
#: old readers fail loudly, not subtly.
TRACE_NDJSON_FORMAT = "repro-swarm-trace/ndjson-1"

#: Format tag of a dynamics-trace document
#: (:class:`~repro.scenarios.trace.DynamicsTrace`).
DYNAMICS_TRACE_FORMAT = "repro-swarm-dynamics/1"

#: What each format tag names, for error messages.
_KINDS = {TRACE_NDJSON_FORMAT: "request trace",
          DYNAMICS_TRACE_FORMAT: "dynamics trace"}


def _chunk_dtype(bits: int | None) -> np.dtype:
    """Decoded chunk-address dtype for an address width.

    Addresses decode straight into the compact dtype the fast
    kernel's flatten path expects
    (:func:`~repro.kademlia.address.target_dtype`); an unknown width
    and the >32-bit spaces the vectorized backend refuses anyway keep
    ``uint64``.
    """
    if bits is not None and bits <= 32:
        return target_dtype(bits)
    return np.dtype(np.uint64)


@dataclass(frozen=True)
class TraceHeader:
    """The provenance a trace replays on: one strict type for every
    trace file.

    ``bits`` must be in [1, 64], ``n_nodes`` at least 1 and
    ``overlay_seed`` at least 0, each a plain int (never a bool, float,
    string or ``None``); ``tag`` is the file's format tag. Anything
    else raises :class:`~repro.errors.WorkloadError`.
    """

    bits: int
    n_nodes: int
    overlay_seed: int
    tag: str = TRACE_NDJSON_FORMAT

    def __post_init__(self) -> None:
        if self.tag not in _KINDS:
            raise WorkloadError(f"unknown trace format tag {self.tag!r}")
        for name, low, high in (("bits", 1, 64), ("n_nodes", 1, None),
                                ("overlay_seed", 0, None)):
            value = getattr(self, name)
            if type(value) is not int or value < low or (
                    high is not None and value > high):
                bound = f"in [{low}, {high}]" if high else f">= {low}"
                raise WorkloadError(
                    f"header field {name!r} must be an integer {bound}, "
                    f"got {reprlib.repr(value)}"
                )

    def to_json(self) -> dict:
        """The header fields of a trace document."""
        return {"format": self.tag, "bits": self.bits,
                "n_nodes": self.n_nodes, "overlay_seed": self.overlay_seed}

    @classmethod
    def from_json(cls, document, *, path: str | Path = "<memory>",
                  tag: str = TRACE_NDJSON_FORMAT) -> "TraceHeader":
        """Validate a decoded header; other keys are ignored.

        Raises :class:`~repro.errors.WorkloadError` naming *path* when
        *document* is not an object carrying *tag* and valid
        ``bits``/``n_nodes``/``overlay_seed`` fields.
        """
        where = f"cannot read {_KINDS[tag]} {path}"
        if not isinstance(document, dict):
            raise WorkloadError(
                f"{where}: expected a {tag} header object, got "
                f"{type(document).__name__}"
            )
        found = document.get("format")
        if found != tag:
            hint = (f" (this is a {_KINDS[found]})"
                    if isinstance(found, str) and found in _KINDS else "")
            raise WorkloadError(
                f"{where}: format tag {reprlib.repr(found)} is not "
                f"{tag!r}{hint}"
            )
        missing = [name for name in ("bits", "n_nodes", "overlay_seed")
                   if name not in document]
        if missing:
            raise WorkloadError(f"{where}: missing header field "
                                f"{missing[0]!r}")
        try:
            return cls(document["bits"], document["n_nodes"],
                       document["overlay_seed"], tag)
        except WorkloadError as error:
            raise WorkloadError(f"{where}: {error}") from None

    @classmethod
    def parse(cls, line: str, *, path: str | Path = "<memory>",
              tag: str = TRACE_NDJSON_FORMAT) -> "TraceHeader":
        """Decode a header line (see :meth:`from_json`)."""
        try:
            document = json.loads(line)
        except (ValueError, RecursionError):
            raise WorkloadError(
                f"cannot read {_KINDS[tag]} {path}: the first line is "
                f"not a JSON {tag} header"
            ) from None
        return cls.from_json(document, path=path, tag=tag)

    def check(self, bits: int, n_nodes: int, overlay_seed: int | None,
              *, path: str | Path | None = None) -> None:
        """Refuse a replay on another overlay than the recorded one.

        A ``None`` argument means the caller does not know that
        field, which skips its comparison.
        """
        kind = _KINDS[self.tag]
        what = kind if path is None else f"{kind} {path}"
        for recorded, given, label in (
                (self.bits, bits, "a {}-bit space"),
                (self.n_nodes, n_nodes, "{} nodes"),
                (self.overlay_seed, overlay_seed, "overlay seed {}")):
            if given is not None and given != recorded:
                raise WorkloadError(
                    f"{what} was recorded on {label.format(recorded)} but "
                    f"this run uses {label.format(given)}; replay traces "
                    f"against the overlay they were recorded for"
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
            f"cannot read request trace {path}: malformed event ({error})"
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
    trace was captured on, kept as its :attr:`header`. A trace built
    in memory without an overlay at hand has ``header`` ``None``; it
    replays with the membership checks alone and cannot be saved.
    """

    def __init__(self, events: Sequence[FileDownload], *,
                 bits: int | None = None,
                 n_nodes: int | None = None,
                 overlay_seed: int | None = None) -> None:
        if len(events) == 0:
            raise WorkloadError("a trace needs at least one event")
        self._events = tuple(events)
        self.header = (
            None if bits is n_nodes is overlay_seed is None
            else TraceHeader(bits, n_nodes, overlay_seed)
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

    # ------------------------------------------------------------------
    # Persistence

    def save(self, path: str | Path) -> None:
        """Write the trace as headed NDJSON, one event per line.

        A trace without provenance is refused: the file's header is
        what lets every later replay check its overlay.
        """
        if self.header is None:
            raise WorkloadError(
                f"cannot save trace {path}: it has no provenance; build "
                f"it with bits=, n_nodes= and overlay_seed="
            )
        with open_output(path, "request trace") as handle:
            handle.write(json.dumps(self.header.to_json()) + "\n")
            for event in self._events:
                handle.write(json.dumps({
                    "file_id": event.file_id,
                    "originator": event.originator,
                    "chunks": [int(a) for a in event.chunk_addresses],
                }) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadTrace":
        """Read a trace written by :meth:`save`.

        A file whose first line is not a :data:`TRACE_NDJSON_FORMAT`
        header, or whose later lines are not events, raises
        :class:`~repro.errors.WorkloadError` naming the path. Each raw
        event's parse tree is dropped as soon as its compact
        :class:`FileDownload` exists, so peak memory is the decoded
        trace plus one line.
        """
        path = Path(path)
        events = []
        with TextLines(path, "request trace") as lines:
            iterator = iter(lines)
            header = TraceHeader.parse(next(iterator, ""), path=path)
            dtype = _chunk_dtype(header.bits)
            for lineno, line in enumerate(iterator, start=2):
                if not line.strip():
                    continue
                try:
                    item = json.loads(line)
                except (ValueError, RecursionError) as error:
                    raise WorkloadError(
                        f"cannot read request trace {path}: line "
                        f"{lineno} is not valid JSON ({error}); the "
                        f"file may be truncated or corrupt"
                    ) from None
                events.append(_decode_event(item, dtype, path))
        return cls(events, bits=header.bits, n_nodes=header.n_nodes,
                   overlay_seed=header.overlay_seed)


class TraceWorkload:
    """Adapter replaying a frozen trace through the workload interface.

    Simulators consume workloads via ``events(nodes, space)``; this
    wrapper satisfies that interface from a :class:`WorkloadTrace`.
    """

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self.n_files = len(trace)

    def events(self, nodes, space) -> Iterator[FileDownload]:
        """Yield the trace's events after checking they fit the overlay.

        The header (when there is one) must name this overlay's bits
        and size, every originator must be a node of *nodes*, and
        every chunk address must fit *space*; a
        :class:`~repro.errors.WorkloadError` is raised otherwise.
        """
        if self.trace.header is not None:
            self.trace.header.check(space.bits, len(nodes), None)
        population = set(int(n) for n in nodes)
        for event in self.trace:
            if event.originator not in population:
                raise WorkloadError(
                    f"trace originator {event.originator} is not a node "
                    "of this overlay; replay traces against the overlay "
                    "seed they were generated for"
                )
            # A FileDownload always has at least one chunk (enforced at
            # construction), so the max is well-defined.
            if int(event.chunk_addresses.max()) >= space.size:
                raise WorkloadError(
                    f"trace chunk address "
                    f"{int(event.chunk_addresses.max())} outside the "
                    f"{space.bits}-bit space"
                )
            yield event
