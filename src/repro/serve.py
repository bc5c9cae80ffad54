"""The ``repro-swarm serve`` daemon: a long-lived streaming session.

NDJSON requests in (stdin or a file), NDJSON rolling aggregates out.
Each input line is one download request in the wire format of
:func:`~repro.workloads.streams.parse_request_line`; the daemon
batches arrivals into micro-epochs of at most ``--max-batch`` files,
which :class:`~repro.workloads.streams.RequestStream` decodes straight
into kernel columns (no per-request objects): from the batch's bytes
in one vectorized pass when every line has one of the two layouts
``json.dumps`` writes (``{"originator": N, "chunks": [N, ...]}``, or
``{"file_id": N, "originator": N, "chunks": [N, ...]}`` as in request
traces), else with one ``json.loads`` for the whole batch. It routes
each micro-epoch through a persistent
:class:`~repro.backends.fast.StreamSession` (tables built once,
scenario coded patches reused across batches). The daemon's state is
one running :class:`~repro.backends.result.SimulationResult`: each
micro-epoch routes into a fresh scratch result, which
:class:`~repro.analysis.streaming.StreamingAggregator` then adds into
the running one, so a SIGTERM that interrupts routing leaves the
running result at whole micro-epochs. Every ``--flush-interval``
batches the daemon emits a ``snapshot`` line; at end of input — or on
SIGTERM/SIGINT, which flush gracefully — it emits one ``final`` line.
Both lines read the running result's own metrics.

Memory is bounded independent of stream length: one micro-batch of
decoded columns, the O(n_nodes) session state and running result, and
(for scenario serving) the coded patches. The ``final`` line's
metrics are exactly what a batch run over the same requests reports
— the ``--batch`` reference mode materializes the input and runs the
one-shot engine to let CI ``cmp`` the two byte-for-byte.

A request line that does not decode to a valid request — bad JSON, a
non-int originator or address, an originator outside the overlay, an
address outside the space — raises
:class:`~repro.errors.WorkloadError` naming the line; the micro-batch
holding it is refused whole, and batches before it stay served.

Convenience: a request trace (``repro-swarm trace generate`` or
``trace import-requests`` output) is accepted directly. Its header
line is parsed as a :class:`~repro.workloads.traces.TraceHeader`,
checked against the serving overlay's bits, node count and overlay
seed, and skipped, so ``repro-swarm serve < trace.ndjson`` just works;
a header with another format tag or another overlay is refused.
"""

from __future__ import annotations

import itertools
import json
import signal
from typing import IO, Iterable, Iterator

import numpy as np

from .analysis.streaming import StreamingAggregator
from .backends.config import FastSimulationConfig
from .backends.fast import FastSimulation, StreamSession
from .backends.result import SimulationResult
from .errors import WorkloadError
from .workloads.generators import FileDownload
from .workloads.streams import RequestStream
from .workloads.traces import TraceHeader

__all__ = ["run_serve"]


class _Shutdown(Exception):
    """Raised by the signal handler to unwind into the final flush."""


def _install_handlers(feeding: list[bool]) -> list:
    """Route SIGTERM/SIGINT into a clean final flush; return originals.

    A signal unwinds the feed loop only while ``feeding[0]`` holds; one
    handled after the input ran out is absorbed by the final flush.
    """
    def handler(signum, frame):
        if feeding[0]:
            raise _Shutdown()

    previous = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except ValueError:  # pragma: no cover - non-main thread
            pass
    return previous


def _skip_trace_header(lines: Iterable[str] | IO[str],
                       config: FastSimulationConfig) -> Iterator[str]:
    """Pass request lines through, consuming a leading trace header.

    A first line that decodes to an object with a ``format`` key is a
    trace header: it must be a valid
    :class:`~repro.workloads.traces.TraceHeader` naming the serving
    overlay's bits, size and seed, and is passed on as a blank line so
    request line numbers still count it. Any other first line is fed
    back into the stream untouched.
    """
    iterator = iter(lines)
    first = next(iterator, None)
    if first is None:
        return iter(())
    try:
        candidate = json.loads(first) if first.strip() else None
    except (ValueError, RecursionError):
        candidate = None
    if not (isinstance(candidate, dict) and "format" in candidate):
        return itertools.chain([first], iterator)
    path = getattr(lines, "name", "<input>")
    TraceHeader.from_json(candidate, path=path).check(
        config.bits, config.n_nodes, config.overlay_seed, path=path
    )
    return itertools.chain(["\n"], iterator)


class _ColumnWorkload:
    """Workload adapter replaying decoded request columns as events.

    The one-shot engine maps each event's originator address back to
    its dense index itself, so the ``--batch`` reference also checks
    the stream's ``searchsorted`` origin mapping.
    """

    def __init__(self, batches) -> None:
        self._batches = batches

    def events(self, nodes, space):
        for batch in self._batches:
            ends = np.cumsum(batch.sizes)
            starts = ends - batch.sizes
            for origin, start, end, lineno in zip(
                    nodes[batch.origins].tolist(), starts.tolist(),
                    ends.tolist(), batch.linenos.tolist()):
                yield FileDownload(
                    file_id=lineno - 1, originator=origin,
                    chunk_addresses=batch.targets[start:end],
                )


def _emit(out: IO[str], kind: str, payload: dict) -> None:
    """One deterministic NDJSON output line."""
    line = {"type": kind}
    line.update(payload)
    out.write(json.dumps(line, sort_keys=True) + "\n")
    out.flush()


def run_serve(config: FastSimulationConfig,
              lines: Iterable[str] | IO[str], out: IO[str], *,
              max_batch: int = 256, flush_interval: int = 1,
              n_epochs: int | None = None,
              batch_mode: bool = False) -> SimulationResult:
    """Serve a request stream; returns the running result it served.

    *lines* is the NDJSON request source, *out* the NDJSON sink.
    ``n_epochs`` is required when *config* carries a scenario (epoch
    schedules are sized up front). ``batch_mode`` materializes the
    whole input and runs the one-shot engine instead — the reference
    the CI smoke compares the streamed ``final`` line against.
    """
    if flush_interval < 1:
        raise WorkloadError(
            f"flush_interval must be at least 1, got {flush_interval}"
        )
    simulation = FastSimulation(config)
    addresses = simulation.overlay.address_array()
    aggregator = StreamingAggregator(simulation.new_result())
    stream = RequestStream(
        _skip_trace_header(lines, config), max_batch=max_batch
    )
    batches = stream.batches(addresses, simulation.space)

    if batch_mode:
        decoded = list(batches)
        if decoded:
            aggregator.absorb(simulation.run(_ColumnWorkload(decoded)))
        _emit(out, "final", aggregator.summary())
        return aggregator.result

    entry_dt = simulation.table.entry_dtype

    feeding = [True]
    previous = _install_handlers(feeding)
    try:
        with StreamSession(simulation, n_epochs=n_epochs) as session:
            try:
                for batch in batches:
                    scratch = simulation.new_result()
                    scratch.files += len(batch)
                    origins = batch.origins.astype(entry_dt)
                    session.feed(np.repeat(origins, batch.sizes),
                                 batch.targets, into=scratch)
                    aggregator.absorb(scratch)
                    if session.epochs_fed % flush_interval == 0:
                        _emit(out, "snapshot", aggregator.snapshot())
            except _Shutdown:
                pass
            finally:
                feeding[0] = False
    finally:
        for signum, original in previous:
            signal.signal(signum, original)
    _emit(out, "final", aggregator.summary())
    return aggregator.result
