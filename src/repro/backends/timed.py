"""The time-domain simulation backend (``--backend time``).

The hop kernel answers "how many hops and who forwarded"; this module
answers "*when* did each chunk arrive". It runs in two phases:

1. **Path recording** — the workload routes through the fast
   backend's own kernel and epoch loop
   (:class:`~repro.backends.fast.StreamSession` over
   ``FastSimulation._route_batch``), with a path recorder observing
   it: each wave reports ``(chunk id, receiver)``, so every retrieval
   leaves a concrete node path behind. Every counter (forwarded,
   first-hop, hop histogram, income, fallbacks, cache hits) therefore
   comes from the very code the fast backend runs, so the hop-count
   projection of a time run is **bit-identical** to the fast backend
   — the golden-fixture equivalence suite pins this.
2. **Fluid timeline** — a vectorized event wheel over the recorded
   paths, driven by the :class:`~repro.engine.des.EventScheduler`.
   Each in-flight chunk carries ``(remaining_bytes, path, hop_index)``;
   a transfer's rate is the fair share
   ``min(up / sender_out, down / receiver_in)`` of its endpoints'
   finite bandwidth, recomputed only at arrival/departure events.
   Fixed per-hop propagation (``2 * hops * hop_latency_ms``: request
   out, data back) is folded into the chunk's release time, so the
   wheel only simulates the bandwidth-bound data hops. A positive
   ``time_quantum_ms`` batches completions into slots, bounding the
   number of bandwidth recomputations for paper-scale runs. Transfers
   that start at one event on one (sender, receiver) pair share every
   float operation, so the wheel holds them as one *bundle* in a
   preallocated pool with incremental per-node degrees, and a
   concurrency cap queues requests in one FIFO per sender; an event
   costs O(bundles + changed transfers), and every completion time is
   bit-identical to simulating each transfer on its own.

With unbounded bandwidth and no concurrency cap the wheel collapses
to closed form (latency = ``2 * hops * hop_latency``), which is both
the equivalence mode against the static kernel and the pure
propagation-delay model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..engine.des import EventScheduler
from ..errors import SimulationError
from ..workloads.distributions import PoissonArrivals
from .base import SimulationBackend, register_backend
from .config import FastSimulationConfig
from .fast import FastSimulation
from .result import SimulationResult

__all__ = ["TimedSimulation", "TimeBackend", "ChunkPaths", "FluidWheel"]

#: Decimal megabit per second -> bytes per second.
MBPS_TO_BYTES = 1e6 / 8.0

#: A transfer counts as complete when this many bytes (or fewer)
#: remain — absorbs float error in ``remaining -= rate * dt``.
_EPS_BYTES = 1e-6


# ----------------------------------------------------------------------
# Phase 1: path recording


@dataclass
class ChunkPaths:
    """The per-chunk delivery paths one routing pass recorded.

    ``hops[c]`` is chunk *c*'s network path length (0 for chunks that
    never touched the network: local hits and unavailable chunks).
    ``nodes[offsets[c]:offsets[c] + hops[c]]`` are the nodes the
    *request* visited in hop order; the last entry is the node that
    served the chunk, and the data retraces the path in reverse.
    ``zero_ids`` are the local hits (retrieved instantly, latency 0);
    chunks with ``hops == 0`` that are not in ``zero_ids`` were
    unavailable and produce no latency sample.
    """

    hops: np.ndarray
    offsets: np.ndarray
    nodes: np.ndarray
    zero_ids: np.ndarray

    @property
    def routed_ids(self) -> np.ndarray:
        """Chunk ids that actually traversed the network."""
        return np.flatnonzero(self.hops > 0)


class _PathRecorder:
    """Accumulates per-wave receivers into flat per-chunk paths.

    The observer :class:`~repro.backends.fast.StreamSession` hands the
    fast kernel: every wave reports which chunk ids reached which
    nodes. The blocks of a split slab report from their own threads;
    :meth:`assemble` scatters by chunk id, so the order of the calls
    does not matter.
    """

    def __init__(self, n_chunks: int) -> None:
        self.n_chunks = n_chunks
        self._waves: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._zero: list[np.ndarray] = []

    def record_wave(self, depth: int, ids: np.ndarray,
                    receivers: np.ndarray) -> None:
        """Chunks *ids* were forwarded to *receivers* at wave *depth*."""
        # The kernel reuses its wave buffers: keep copies, not views.
        if ids.size:
            self._waves.setdefault(depth, []).append(
                (ids.copy(), receivers.astype(np.int32))
            )

    def record_zero_hop(self, ids: np.ndarray) -> None:
        """Chunks *ids* were local hits (no network path)."""
        if ids.size:
            self._zero.append(ids.copy())

    def assemble(self) -> ChunkPaths:
        """Flatten the recorded waves into contiguous per-chunk paths."""
        hops = np.zeros(self.n_chunks, dtype=np.int32)
        for pairs in self._waves.values():
            for ids, _ in pairs:
                hops[ids] += 1
        offsets = np.zeros(self.n_chunks + 1, dtype=np.int64)
        np.cumsum(hops, out=offsets[1:])
        nodes = np.empty(int(offsets[-1]), dtype=np.int32)
        # A chunk in flight at wave d was in flight at every wave
        # before it, so its wave-d receiver sits at path position d-1.
        for depth, pairs in self._waves.items():
            for ids, receivers in pairs:
                nodes[offsets[ids] + (depth - 1)] = receivers
        zero = (np.concatenate(self._zero) if self._zero
                else np.empty(0, dtype=np.int64))
        return ChunkPaths(hops=hops, offsets=offsets[:-1], nodes=nodes,
                          zero_ids=np.sort(zero))


# ----------------------------------------------------------------------
# Phase 2: the fluid event wheel


class FluidWheel:
    """Fair-share fluid transfer timeline over recorded paths.

    One instance simulates the data movement of every routed chunk:
    chunk *j* is released into the wheel at ``release[j]`` (arrival
    time plus total fixed propagation) and its payload then crosses
    the recorded path in reverse, one bandwidth-bound transfer per
    hop. The :class:`EventScheduler` sequences release batches and
    completion slots, with stale completion events invalidated by a
    generation counter (lazy cancellation).

    Active transfers live in an **edge-bundle pool**. Transfers
    activated at the same event on the same (sender, receiver) pair
    start with the same bytes and always get the same rate, so every
    float operation on them — ``remaining -= rate * dt``, the
    ``remaining / rate`` minimum, the finish test — is the same; the
    pool keeps one row per such bundle with a member count. Members
    sit in a member store allocated once (one slot per transfer,
    ``hops.sum()`` in all), sorted by pair within each activation
    batch, so a bundle is a ``(start, count)`` range of it. Pool
    columns grow by doubling; finished bundles are swap-removed in
    one vectorised move. Per-node out/in degrees are kept
    incrementally from the activated and retired members only, and a
    bundle's rate is ``min((up / out)[sender], (down / inn)[receiver])``
    — the same division as per transfer. An event therefore costs
    O(bundles + changed transfers).

    With a concurrency cap, requests go to a request log (one slot per
    transfer, in request order) threaded into one FIFO list per
    sender, and a sender with free slots pops the heads of its list,
    so admission touches only the senders and requests that move.
    Admitted transfers activate in request order and finished ones
    retire in activation order (the member store keeps activation
    sequence numbers under a cap), which is the order one global FIFO
    queue and one active list would give.
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
        # A rate is infinite only when both ends are unbounded, and
        # then it is infinite for every transfer of the run.
        self._finite = not (np.isinf(self.up) and np.isinf(self.down))
        # Data-hops each chunk has left after the one it is on.
        self._left = hops - 1
        # Member store: chunk ids (and, under a cap, activation
        # sequence numbers), written once per transfer.
        total = int(hops.sum())
        index_dt = np.int32 if max(m, total) < 2**31 else np.int64
        self._member = np.empty(total, dtype=index_dt)
        self._member_seq = np.empty(total if self.cap else 0,
                                    dtype=index_dt)
        self._written = 0
        self._activated = 0
        # The bundle pool (rows [0, _size) are live).
        self._size = 0
        self._sender = np.empty(0, dtype=np.intp)
        self._receiver = np.empty(0, dtype=np.intp)
        self._start = np.empty(0, dtype=np.intp)
        self._count = np.empty(0, dtype=np.intp)
        self._remaining = np.empty(0, dtype=np.float64)
        self._rate = np.empty(0, dtype=np.float64)
        self._scratch = np.empty(0, dtype=np.float64)
        self._grow(256)
        # Per-node active transfer counts and fair-share buffers.
        self._out = np.zeros(n_nodes, dtype=np.int64)
        self._inn = np.zeros(n_nodes, dtype=np.int64)
        self._up_share = np.empty(n_nodes, dtype=np.float64)
        self._down_share = np.empty(n_nodes, dtype=np.float64)
        # Admission queue (cap > 0 only): a request log in request
        # order, one slot per transfer, threaded into one FIFO list per
        # sender (``_next`` links a request to its sender's next one).
        log = total if self.cap else 0
        self._log_chunk = np.empty(log, dtype=index_dt)
        self._log_sender = np.empty(log, dtype=index_dt)
        self._log_receiver = np.empty(log, dtype=index_dt)
        self._next = np.empty(log, dtype=index_dt)
        self._logged = 0
        self._head = np.zeros(n_nodes, dtype=np.int64)
        self._tail = np.zeros(n_nodes, dtype=np.int64)
        self._queued = np.zeros(n_nodes, dtype=np.int64)
        self._last = 0.0
        self._gen = 0

    # -- helpers -------------------------------------------------------

    def _snap_up(self, t):
        """Quantize times up to the next slot boundary (vector or scalar)."""
        q = self.quantum
        return np.ceil(np.asarray(t) / q - 1e-12) * q

    def _endpoints(self, chunks: np.ndarray,
                   left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sender, receiver) node indices of each chunk's data-hop
        with *left* data-hops after it.

        The first data-hop leaves the serving node (the last request
        hop); the final one (``left == 0``) delivers to the originator.
        """
        pos = self.offsets[chunks] + left
        sender = self.nodes[pos].astype(np.int64)
        receiver = np.where(
            left == 0, self.origins[chunks],
            self.nodes[np.maximum(pos - 1, 0)],
        ).astype(np.int64)
        return sender, receiver

    def _grow(self, need: int) -> None:
        """Make room for *need* pool rows, doubling the capacity."""
        capacity = self._remaining.size
        if need <= capacity:
            return
        capacity = max(need, 2 * capacity)
        for name in ("_sender", "_receiver", "_start", "_count",
                     "_remaining", "_rate", "_scratch"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self._size] = old[:self._size]
            setattr(self, name, new)

    def _enqueue(self, chunks: np.ndarray, left: np.ndarray) -> None:
        """Request each chunk's current data-hop (activate or queue)."""
        if chunks.size == 0:
            return
        sender, receiver = self._endpoints(chunks, left)
        if self.cap == 0:
            self._activate(chunks, sender, receiver)
            return
        k = chunks.size
        p = self._logged
        self._log_chunk[p:p + k] = chunks
        self._log_sender[p:p + k] = sender
        self._log_receiver[p:p + k] = receiver
        self._logged = p + k
        # Chain each sender's new requests in request order, behind
        # the ones it already has queued.
        order = sender.argsort(kind="stable")
        grouped = sender[order]
        slots = order + p
        # Links across a sender boundary leave a group's tail, whose
        # link is only followed after a later request overwrites it.
        self._next[slots[:-1]] = slots[1:]
        edge = np.empty(k + 1, dtype=bool)
        edge[0] = edge[k] = True
        np.not_equal(grouped[1:], grouped[:-1], out=edge[1:k])
        first = edge[:k].nonzero()[0]
        last = edge[1:].nonzero()[0]
        senders = grouped[first]
        waiting = self._queued[senders] > 0
        self._next[self._tail[senders[waiting]]] = slots[first[waiting]]
        self._head[senders[~waiting]] = slots[first[~waiting]]
        self._tail[senders] = slots[last]
        self._queued[senders] += last - first + 1

    def _activate(self, chunks, sender, receiver) -> None:
        """Start one transfer per chunk, one pool row per bundle."""
        k = chunks.size
        n = self.n_nodes
        key = sender * n + receiver
        # Members of one bundle are interchangeable, so any sort will do.
        order = key.argsort()
        key = key[order]
        w = self._written
        self._member[w:w + k] = chunks[order]
        if self.cap:
            np.add(order, self._activated, out=self._member_seq[w:w + k])
            self._activated += k
        self._written = w + k
        heads = (key[1:] != key[:-1]).nonzero()[0]
        rows = heads.size + 1
        b = self._size
        self._grow(b + rows)
        start = self._start[b:b + rows]
        start[0] = w
        np.add(heads, w + 1, out=start[1:])
        count = self._count[b:b + rows]
        count[:-1] = start[1:]
        count[-1] = w + k
        count -= start
        sender = self._sender[b:b + rows]
        receiver = self._receiver[b:b + rows]
        np.divmod(key[start - w], n, out=(sender, receiver))
        np.add.at(self._out, sender, count)
        np.add.at(self._inn, receiver, count)
        self._remaining[b:b + rows] = self.chunk_bytes
        self._size = b + rows

    def _admit(self) -> None:
        """Move queued requests whose sender has a free slot to active.

        FIFO per sender: the oldest queued requests of a sender (the
        head of its list) fill its free slots, and admitted requests
        activate in request order.
        """
        if self.cap == 0:
            return
        take = np.minimum(self.cap - self._out, self._queued)
        senders = (take > 0).nonzero()[0]
        if senders.size == 0:
            return
        take = take[senders]
        # Pop each sender's first ``take`` requests, one per round.
        slot = self._head[senders]
        admitted = slot
        rounds = int(take.max())
        if rounds > 1:
            popped = [slot]
            tail = slot.copy()
            group = np.arange(senders.size)
            for depth in range(1, rounds):
                more = take[group] > depth
                group = group[more]
                slot = self._next[slot[more]]
                popped.append(slot)
                tail[group] = slot
            slot = tail
            admitted = np.concatenate(popped)
        self._head[senders] = self._next[slot]
        self._queued[senders] -= take
        admitted.sort()
        self._activate(self._log_chunk[admitted],
                       self._log_sender[admitted].astype(np.int64),
                       self._log_receiver[admitted].astype(np.int64))

    def _recompute_rates(self) -> None:
        """Fair-share rate per bundle at the current instant."""
        b = self._size
        if b == 0 or not self._finite:
            return
        with np.errstate(divide="ignore"):
            np.divide(self.up, self._out, out=self._up_share)
            np.divide(self.down, self._inn, out=self._down_share)
        rate = self._rate[:b]
        np.take(self._up_share, self._sender[:b], out=rate)
        np.minimum(rate, self._down_share[self._receiver[:b]], out=rate)

    def _advance(self, now: float) -> None:
        """Progress every active transfer to *now* at its last rate."""
        dt = now - self._last
        b = self._size
        if dt > 0 and b and self._finite:
            step = self._scratch[:b]
            np.multiply(self._rate[:b], dt, out=step)
            np.subtract(self._remaining[:b], step, out=self._remaining[:b])
        self._last = now

    def _complete(self, now: float) -> None:
        """Retire finished bundles; chain or finish their chunks."""
        b = self._size
        if self._finite:
            remaining = self._remaining[:b]
            rows = (remaining <= _EPS_BYTES).nonzero()[0]
            if rows.size == 0:
                # The scheduled completion instant is exact up to float
                # error; retire the nearest transfer so the wheel always
                # makes progress.
                nearest = remaining.min() + _EPS_BYTES
                rows = (remaining <= nearest).nonzero()[0]
        else:
            # Unbounded endpoints transfer instantaneously.
            rows = np.arange(b)
        slots = _ranges(self._start[rows], self._count[rows])
        if self.cap:
            # Retire in activation order, as one active list would.
            slots = slots[self._member_seq[slots].argsort()]
        chunks = self._member[slots]
        count = self._count[rows]
        np.subtract.at(self._out, self._sender[rows], count)
        np.subtract.at(self._inn, self._receiver[rows], count)
        self._remove(rows)
        left = self._left[chunks]
        last_hop = left == 0
        self.done[chunks[last_hop]] = now
        ongoing = ~last_hop
        if ongoing.any():
            chunks = chunks[ongoing]
            left = left[ongoing] - 1
            self._left[chunks] = left
            self._enqueue(chunks, left)

    def _remove(self, rows: np.ndarray) -> None:
        """Swap-remove the sorted pool *rows*: tail rows fill the holes.

        Rates are not moved: every retirement is followed by a full
        rate recomputation before they are read again.
        """
        b = self._size
        size = b - rows.size
        holes = rows[:np.searchsorted(rows, size)]
        if holes.size:
            alive = np.ones(b - size, dtype=bool)
            alive[rows[holes.size:] - size] = False
            movers = alive.nonzero()[0] + size
            for column in (self._sender, self._receiver, self._start,
                           self._count, self._remaining):
                column[holes] = column[movers]
        self._size = size

    def _reschedule(self, scheduler: EventScheduler) -> None:
        """Schedule the next completion slot (invalidating older ones)."""
        self._gen += 1
        b = self._size
        if b == 0:
            return
        generation = self._gen
        if self._finite:
            ratio = self._scratch[:b]
            np.divide(self._remaining[:b], self._rate[:b], out=ratio)
            dt = float(ratio.min())
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

    # -- driver --------------------------------------------------------

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
                self._enqueue(batch, self._left[batch])
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each (start, count) pair."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


# ----------------------------------------------------------------------
# The backend


class TimedSimulation:
    """Time-domain replay of a download workload (see module docstring)."""

    def __init__(self, config: FastSimulationConfig) -> None:
        self.config = config
        self._fast = FastSimulation(config)
        self.overlay = self._fast.overlay
        self.table = self._fast.table
        self.space = self._fast.space

    # -- phase 1: path recording through the fast kernel ---------------

    def run(self, workload=None) -> SimulationResult:
        """Route, record paths, and simulate the transfer timeline."""
        started = time.perf_counter()
        config = self.config
        fast = self._fast
        if workload is None:
            workload = config.workload()
        result = fast.new_result()
        file_origins, sizes, targets = fast._flatten_workload(workload)
        result.files += len(sizes)
        origins = np.repeat(file_origins, sizes)
        recorder = _PathRecorder(int(targets.size))
        fast._route_slabs(origins, sizes, targets, result,
                          recorder=recorder)
        if targets.size:
            arrivals = PoissonArrivals(config.arrival_rate).sample(
                len(sizes), np.random.default_rng(config.arrival_seed)
            )
            result.latency_ms = self._timeline(
                recorder.assemble(), np.repeat(arrivals, sizes), origins
            )
        else:
            result.latency_ms = np.empty(0, dtype=np.float64)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # -- phase 2: the timeline -----------------------------------------

    def _timeline(self, paths: ChunkPaths, release: np.ndarray,
                  origins: np.ndarray) -> np.ndarray:
        """Per-chunk retrieval latency (ms) over the recorded paths."""
        config = self.config
        hop_lat_s = config.hop_latency_ms / 1000.0
        routed = paths.routed_ids
        routed_hops = paths.hops[routed].astype(np.float64)
        propagation = 2.0 * routed_hops * hop_lat_s
        unbounded = (config.node_up_mbps == 0
                     and config.node_down_mbps == 0
                     and config.max_concurrent == 0)
        if unbounded:
            routed_latency = propagation
        else:
            wheel = FluidWheel(
                n_nodes=self.table.n_nodes,
                chunk_bytes=config.chunk_kib * 1024.0,
                up_bytes_s=config.node_up_mbps * MBPS_TO_BYTES,
                down_bytes_s=config.node_down_mbps * MBPS_TO_BYTES,
                max_concurrent=config.max_concurrent,
                quantum_s=config.time_quantum_ms / 1000.0,
                release_s=release[routed] + propagation,
                hops=paths.hops[routed],
                offsets=paths.offsets[routed],
                nodes=paths.nodes,
                origins=origins[routed].astype(np.int64),
            )
            routed_latency = wheel.run() - release[routed]
        samples = np.full(paths.hops.size, np.nan)
        samples[paths.zero_ids] = 0.0
        samples[routed] = routed_latency * 1000.0
        return samples[~np.isnan(samples)]


@register_backend
class TimeBackend(SimulationBackend):
    """``time``: the latency/bandwidth-aware event-wheel backend."""

    name = "time"
    description = ("time-domain event wheel: finite up/down bandwidth, "
                   "concurrency caps, measured latency CDF")
    uses_next_hop_table = True

    def prepare(self, config: FastSimulationConfig) -> "TimeBackend":
        self.config = config
        self.simulation = TimedSimulation(config)
        self.overlay = self.simulation.overlay
        return self

    def run(self, workload=None) -> SimulationResult:
        self._require_prepared()
        return self.simulation.run(workload)
