"""The event-per-pass fluid wheel, kept as the test oracle.

This is the original :class:`repro.backends.timed.FluidWheel`, moved
here with its code unchanged when the production wheel was rebuilt
around an edge-bundle pool. It recomputes every active transfer with
whole-array passes at each event, which makes it slow but easy to
check by eye; the differential suite
(``tests/property/test_property_fluid_wheel.py``) holds the production
wheel's completion times bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.backends.timed import _EPS_BYTES, ReleaseWindow
from repro.backends.timed import FluidWheel as WindowedWheel
from repro.engine.des import EventScheduler
from repro.errors import SimulationError

__all__ = ["FluidWheel", "one_window"]


def one_window(*, release_s: np.ndarray, hops: np.ndarray,
               offsets: np.ndarray, nodes: np.ndarray, origins: np.ndarray,
               **links) -> WindowedWheel:
    """The production wheel over this oracle's arrays, as one window.

    Takes the oracle's keywords; chunk *j*'s completion time lands in
    ``done[j]`` of the array :meth:`~WindowedWheel.run` returns, as
    the oracle's does.
    """
    return WindowedWheel(
        **links,
        windows=[ReleaseWindow(release_s, hops, offsets, nodes, origins,
                               ids=np.arange(release_s.size))],
        done=np.full(release_s.size, -1.0))


class FluidWheel:
    """Fair-share fluid transfer timeline over recorded paths.

    One instance simulates the data movement of every routed chunk:
    chunk *j* is released into the wheel at ``release[j]`` (arrival
    time plus total fixed propagation) and its payload then crosses
    the recorded path in reverse, one bandwidth-bound transfer per
    hop. All state is structure-of-arrays over the currently active
    transfers; the :class:`EventScheduler` sequences release batches
    and completion slots, with stale completion events invalidated by
    a generation counter (lazy cancellation).
    """

    def __init__(self, *, n_nodes: int, chunk_bytes: float,
                 up_bytes_s: float, down_bytes_s: float,
                 max_concurrent: int, quantum_s: float,
                 release_s: np.ndarray, hops: np.ndarray,
                 offsets: np.ndarray, nodes: np.ndarray,
                 origins: np.ndarray) -> None:
        self.n_nodes = n_nodes
        self.chunk_bytes = float(chunk_bytes)
        self.up = up_bytes_s if up_bytes_s > 0 else np.inf
        self.down = down_bytes_s if down_bytes_s > 0 else np.inf
        self.cap = int(max_concurrent)
        self.quantum = float(quantum_s)
        self.hops = hops
        self.offsets = offsets
        self.nodes = nodes
        self.origins = origins
        if self.quantum > 0:
            release_s = self._snap_up(release_s)
        self.release = release_s
        m = release_s.size
        self.done = np.full(m, -1.0)
        # Active transfers (structure of arrays).
        self._chunk = np.empty(0, dtype=np.int64)
        self._hop = np.empty(0, dtype=np.int32)
        self._sender = np.empty(0, dtype=np.int64)
        self._receiver = np.empty(0, dtype=np.int64)
        self._remaining = np.empty(0, dtype=np.float64)
        self._rate = np.empty(0, dtype=np.float64)
        # FIFO admission queue (only populated when cap > 0).
        self._q_chunk = np.empty(0, dtype=np.int64)
        self._q_hop = np.empty(0, dtype=np.int32)
        self._q_sender = np.empty(0, dtype=np.int64)
        self._q_receiver = np.empty(0, dtype=np.int64)
        self._last = 0.0
        self._gen = 0

    # -- helpers -------------------------------------------------------

    def _snap_up(self, t):
        """Quantize times up to the next slot boundary (vector or scalar)."""
        q = self.quantum
        return np.ceil(np.asarray(t) / q - 1e-12) * q

    def _endpoints(self, chunks: np.ndarray,
                   hop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sender, receiver) node indices of data-hop *hop* per chunk.

        Data-hop 0 leaves the serving node (the last request hop);
        the final data-hop delivers to the originator.
        """
        pos = self.offsets[chunks] + (self.hops[chunks] - 1 - hop)
        sender = self.nodes[pos].astype(np.int64)
        last = hop == self.hops[chunks] - 1
        receiver = np.where(
            last, self.origins[chunks],
            self.nodes[np.maximum(pos - 1, 0)],
        ).astype(np.int64)
        return sender, receiver

    def _enqueue(self, chunks: np.ndarray, hop: np.ndarray) -> None:
        """Request data-hop *hop* for *chunks* (activate or queue)."""
        if chunks.size == 0:
            return
        sender, receiver = self._endpoints(chunks, hop)
        if self.cap == 0:
            self._activate(chunks, hop, sender, receiver)
            return
        self._q_chunk = np.concatenate((self._q_chunk, chunks))
        self._q_hop = np.concatenate((self._q_hop, hop.astype(np.int32)))
        self._q_sender = np.concatenate((self._q_sender, sender))
        self._q_receiver = np.concatenate((self._q_receiver, receiver))

    def _activate(self, chunks, hop, sender, receiver) -> None:
        self._chunk = np.concatenate((self._chunk, chunks))
        self._hop = np.concatenate((self._hop, hop.astype(np.int32)))
        self._sender = np.concatenate((self._sender, sender))
        self._receiver = np.concatenate((self._receiver, receiver))
        self._remaining = np.concatenate((
            self._remaining,
            np.full(chunks.size, self.chunk_bytes),
        ))

    def _admit(self) -> None:
        """Move queued requests whose sender has a free slot to active.

        FIFO per sender: among the queued requests of one sender, the
        oldest fill the free slots (queue arrays are kept in request
        order, so rank-in-queue is rank-in-time).
        """
        if self.cap == 0 or self._q_chunk.size == 0:
            return
        busy = np.bincount(self._sender, minlength=self.n_nodes)
        free = self.cap - busy
        senders = self._q_sender
        by_sender = np.argsort(senders, kind="stable")
        sorted_senders = senders[by_sender]
        starts = np.concatenate(
            ([True], sorted_senders[1:] != sorted_senders[:-1])
        )
        position = np.arange(senders.size)
        group_first = position[starts]
        group_id = np.cumsum(starts) - 1
        rank = np.empty(senders.size, dtype=np.int64)
        rank[by_sender] = position - group_first[group_id]
        admit = rank < free[senders]
        if not admit.any():
            return
        self._activate(self._q_chunk[admit], self._q_hop[admit],
                       self._q_sender[admit], self._q_receiver[admit])
        keep = ~admit
        self._q_chunk = self._q_chunk[keep]
        self._q_hop = self._q_hop[keep]
        self._q_sender = self._q_sender[keep]
        self._q_receiver = self._q_receiver[keep]

    def _recompute_rates(self) -> None:
        """Fair-share rate per active transfer at the current instant."""
        if self._chunk.size == 0:
            self._rate = np.empty(0, dtype=np.float64)
            return
        out = np.bincount(self._sender, minlength=self.n_nodes)
        inn = np.bincount(self._receiver, minlength=self.n_nodes)
        self._rate = np.minimum(
            self.up / out[self._sender], self.down / inn[self._receiver]
        )

    def _advance(self, now: float) -> None:
        """Progress every active transfer to *now* at its last rate."""
        dt = now - self._last
        if dt > 0 and self._remaining.size:
            finite = np.isfinite(self._rate)
            self._remaining[finite] -= self._rate[finite] * dt
        self._last = now

    def _complete(self, now: float) -> None:
        """Retire finished transfers; chain or finish their chunks."""
        finished = self._remaining <= _EPS_BYTES
        infinite = ~np.isfinite(self._rate)
        if infinite.any():
            # Unbounded endpoints transfer instantaneously.
            finished |= infinite
        if not finished.any():
            # The scheduled completion instant is exact up to float
            # error; retire the nearest transfer so the wheel always
            # makes progress.
            finished = self._remaining <= self._remaining.min() + _EPS_BYTES
        chunks = self._chunk[finished]
        hop = self._hop[finished]
        keep = ~finished
        self._chunk = self._chunk[keep]
        self._hop = self._hop[keep]
        self._sender = self._sender[keep]
        self._receiver = self._receiver[keep]
        self._remaining = self._remaining[keep]
        self._rate = self._rate[keep]
        last_hop = hop == self.hops[chunks] - 1
        self.done[chunks[last_hop]] = now
        ongoing = ~last_hop
        if ongoing.any():
            self._enqueue(chunks[ongoing], hop[ongoing] + 1)

    def _reschedule(self, scheduler: EventScheduler) -> None:
        """Schedule the next completion slot (invalidating older ones)."""
        self._gen += 1
        if self._chunk.size == 0:
            return
        generation = self._gen
        finite = np.isfinite(self._rate)
        if finite.all():
            dt = float((self._remaining / self._rate).min())
        else:
            dt = 0.0
        when = self._last + dt
        if self.quantum > 0:
            when = float(self._snap_up(when))
        when = max(when, scheduler.now)

        def handler(s: EventScheduler, t: float) -> None:
            if generation != self._gen:
                return
            self._advance(t)
            self._complete(t)
            self._admit()
            self._recompute_rates()
            self._reschedule(s)

        scheduler.schedule_at(when, handler, name="complete")

    # -- run loop ------------------------------------------------------

    def run(self) -> np.ndarray:
        """Simulate every transfer; returns per-chunk completion times."""
        if self.release.size == 0:
            return self.done
        order = np.argsort(self.release, kind="stable")
        sorted_release = self.release[order]
        boundaries = np.concatenate((
            [0],
            np.flatnonzero(sorted_release[1:] != sorted_release[:-1]) + 1,
            [sorted_release.size],
        ))
        scheduler = EventScheduler()
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            lo, hi = int(lo), int(hi)
            batch = order[lo:hi]

            def release(s: EventScheduler, t: float,
                        batch: np.ndarray = batch) -> None:
                self._advance(t)
                self._enqueue(batch, np.zeros(batch.size, dtype=np.int32))
                self._admit()
                self._recompute_rates()
                self._reschedule(s)

            scheduler.schedule_at(
                float(sorted_release[lo]), release, name="release"
            )
        total_hops = int(self.hops.sum())
        releases = len(boundaries) - 1
        max_events = 4 * total_hops + 4 * releases + 1024
        try:
            scheduler.run_all(max_events=max_events)
        except SimulationError as error:
            raise SimulationError(
                f"fluid event wheel exceeded {max_events} events; set "
                f"time_quantum_ms to batch completions into slots "
                f"({error})"
            ) from error
        if self.done.size and self.done.min() < 0:
            raise SimulationError(
                "fluid event wheel drained with unfinished transfers"
            )
        return self.done
