"""Per-layer spans recorded around calls into the program's layers.

The benchmark does not change the program: it wraps public methods
(plus the serve daemon's ``_emit`` line writer, which has no public
boundary) for the duration of a traced pass and restores them after.
Spans are per call, and every wrapped call handles a whole batch,
epoch, stage or pass -- never a single request -- so tracing costs
microseconds per batch.

A span's self time is its duration minus the time of the spans it
encloses, so summing self times over a pass never counts a second
twice, and ``wall - sum(self times)`` is the time no layer accounts
for.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span and counter totals for one pass or stage."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.clear()

    def clear(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.first: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[name] += duration - frame[0]
            self.total_s[name] += duration
            self.first.setdefault(name, start)
            if self._stack:
                self._stack[-1][0] += duration

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def take(self) -> "Tracer":
        """Hand over the totals recorded so far and start afresh."""
        taken = Tracer()
        taken.self_s, taken.total_s = self.self_s, self.total_s
        taken.counts, taken.first = self.counts, self.first
        self.clear()
        return taken

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


class _Patches:
    """Replace attributes and put the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def method(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original_function)``."""
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _timed(tracer: Tracer, name: str):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)
        return wrapper
    return make


def _instrument_fast(patches: _Patches, tracer: Tracer) -> None:
    from repro.backends.fast import (FastSimulation, NextHopTable,
                                     StreamSession)
    from repro.kademlia.overlay import Overlay
    from repro.scenarios.plan import EpochPlan

    patches.method(Overlay, "build",
                   _timed(tracer, "kademlia.overlay_build"))
    patches.method(NextHopTable, "__init__",
                   _timed(tracer, "fast.table_build"))
    # Self time of run() is everything but feed and plan: workload
    # generation, flatten and the session bookkeeping.
    patches.method(FastSimulation, "run", _timed(tracer, "fast.prepare"))
    patches.method(FastSimulation, "flatten_events",
                   _timed(tracer, "fast.flatten"))
    patches.method(EpochPlan, "__init__",
                   _timed(tracer, "scenarios.plan"))

    def epoch(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span("scenarios.epoch"):
                state = original(*args, **kwargs)
            tracer.count("scenarios.epochs")
            return state
        return wrapper

    patches.method(EpochPlan, "epoch", epoch)

    def feed(original):
        @functools.wraps(original)
        def wrapper(self, origins, targets, *, into=None, ids=None):
            target = self.result if into is None else into
            hops, unavailable = target.total_hops, target.unavailable
            with tracer.span("fast.feed"):
                out = original(self, origins, targets, into=into, ids=ids)
            tracer.count("fast.feed_calls")
            tracer.count("fast.chunks_routed", int(origins.size))
            tracer.count("fast.hops", target.total_hops - hops)
            tracer.count("fast.unavailable",
                         target.unavailable - unavailable)
            return out
        return wrapper

    patches.method(StreamSession, "feed", feed)


def _instrument_timed(patches: _Patches, tracer: Tracer) -> None:
    from repro.backends.timed import FluidWheel, TimedSimulation
    from repro.engine.des import EventScheduler

    patches.method(TimedSimulation, "run", _timed(tracer, "timed.record"))

    def wheel(original):
        @functools.wraps(original)
        def wrapper(self):
            with tracer.span("timed.wheel"):
                done = original(self)
            tracer.count("timed.transfers", int(self.hops.sum()))
            return done
        return wrapper

    patches.method(FluidWheel, "run", wheel)

    def run_all(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            fired = original(*args, **kwargs)
            tracer.count("timed.wheel_events", fired)
            return fired
        return wrapper

    patches.method(EventScheduler, "run_all", run_all)


def _instrument_serve(patches: _Patches, tracer: Tracer) -> None:
    import repro.serve
    from repro.analysis.streaming import StreamingAggregator
    from repro.workloads.streams import RequestStream

    def batches(original):
        @functools.wraps(original)
        def wrapper(self, nodes, space):
            iterator = original(self, nodes, space)
            while True:
                with tracer.span("streams.parse"):
                    batch = next(iterator, None)
                if batch is None:
                    return
                tracer.count("streams.lines", len(batch))
                yield batch
        return wrapper

    patches.method(RequestStream, "batches", batches)
    patches.method(StreamingAggregator, "absorb",
                   _timed(tracer, "streaming.absorb"))
    patches.method(StreamingAggregator, "snapshot",
                   _timed(tracer, "streaming.snapshot"))
    patches.method(repro.serve, "_emit", _timed(tracer, "serve.emit"))


def _instrument_sweeps(patches: _Patches, tracer: Tracer, *,
                       serial: bool) -> None:
    import repro.sweeps.executors
    from repro.perf.shared import SharedTableRegistry
    from repro.sweeps.resilience import FailureTracker
    from repro.sweeps.store import SweepStore

    patches.method(SharedTableRegistry, "acquire",
                   _timed(tracer, "perf.table_publish"))

    def save(original):
        @functools.wraps(original)
        def wrapper(self):
            with tracer.span("sweeps.store_save"):
                original(self)
            tracer.count("sweeps.store_saves")
            tracer.count("sweeps.store_bytes_written",
                         os.path.getsize(self.path))
        return wrapper

    patches.method(SweepStore, "save", save)

    def record(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count("sweeps.retries")
            return original(*args, **kwargs)
        return wrapper

    patches.method(FailureTracker, "record", record)
    if serial:
        # Only the serial executor calls execute_point in this process;
        # the pool pickles it by name, so it must stay unwrapped there.
        patches.method(repro.sweeps.executors, "execute_point",
                       _timed(tracer, "sweeps.point_exec"))


@contextmanager
def instrumented(tracer: Tracer, *, serial_sweep: bool = False):
    """Wrap every traced layer for the duration of the block."""
    patches = _Patches()
    try:
        _instrument_fast(patches, tracer)
        _instrument_timed(patches, tracer)
        _instrument_serve(patches, tracer)
        _instrument_sweeps(patches, tracer, serial=serial_sweep)
        yield tracer
    finally:
        patches.restore()
