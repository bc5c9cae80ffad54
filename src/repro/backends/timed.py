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
   Each data-hop is one transfer, named by its position in the
   recorded ``nodes`` array (the hop after position ``p`` is
   ``p - 1``); a transfer's rate is the fair share
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

import math
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
        """Flatten the recorded waves into contiguous per-chunk paths.

        The recorded waves are consumed: each is freed once written,
        so they do not outlive the paths into the timeline.
        """
        hops = np.zeros(self.n_chunks, dtype=np.int32)
        for pairs in self._waves.values():
            for ids, _ in pairs:
                hops[ids] += 1
        offsets = np.zeros(self.n_chunks + 1, dtype=np.int64)
        np.cumsum(hops, out=offsets[1:])
        nodes = np.empty(int(offsets[-1]), dtype=np.int32)
        # A chunk in flight at wave d was in flight at every wave
        # before it, so its wave-d receiver sits at path position d-1.
        while self._waves:
            depth, pairs = self._waves.popitem()
            while pairs:
                ids, receivers = pairs.pop()
                nodes[offsets[ids] + (depth - 1)] = receivers
        zero = (np.concatenate(self._zero) if self._zero
                else np.empty(0, dtype=np.int64))
        self._zero = []
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

    **Transfers are named by path position.** Chunk paths are disjoint
    slices of ``nodes`` (as :class:`ChunkPaths` lays them out), so the
    data-hop that leaves ``nodes[p]`` is transfer *p*: a chunk's first
    data-hop leaves the serving node, the last position of its path,
    and the hop after transfer *p* is transfer ``p - 1``, down to the
    path's first position, whose data-hop delivers to the originator.
    Write ``succ[p]`` for ``p - 1``, or for ``~chunk`` (negative) at a
    path's first position: the last-hop mark, naming the chunk whose
    completion time that hop writes. One int64 word per position, built
    once per run, is then all the per-transfer state the wheel keeps
    besides its member store: the pair key ``sender * n_nodes +
    receiver`` above ``succ[p] + m`` (``m`` chunks, so never
    negative). Activating transfers gathers their words and sorts
    them, which groups them by pair and yields each member's
    ``succ`` without an argsort.

    Active transfers live in an **edge-bundle pool**. Transfers
    activated at the same event on the same (sender, receiver) pair
    start with the same bytes and always get the same rate, so every
    float operation on them — ``remaining -= rate * dt``, the
    ``remaining / rate`` minimum, the finish test — is the same; the
    pool keeps one row per such bundle with a member count. Members
    (their ``succ``) sit in a member store allocated once (one slot
    per transfer, ``hops.sum()`` in all), sorted by pair within each
    activation batch, so a bundle is a ``(start, count)`` range of it.
    The pool's integer columns (sender, ``n_nodes + receiver``, start,
    count) are the rows of one matrix, so a retirement gathers them in
    one ``take``; finished bundles are swap-removed, and columns grow
    by doubling. Per-node degrees are one vector — out-degrees, then
    in-degrees — kept incrementally from the activated and retired
    bundles only, and a bundle's rate is ``min(share[sender],
    share[n_nodes + receiver])`` with ``share = link / degree``: the
    same division as per transfer. An event therefore costs
    O(bundles + changed transfers). On the ``latency-contended``
    benchmark's three inputs (~590 events each, ~12k live bundles,
    ~900 transfers retiring and ~900 starting per event) this cut the
    wheel, construction included, from 180 ms to 118 ms per input
    (median of 11 interleaved rounds, process time, 2-vCPU shared
    container). Nearly every bundle's rate changes at every event
    (a median 98% of live bundles touch a node whose degree changed),
    so the recomputation stays a whole-pool pass.

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
        self.nodes = nodes
        if self.quantum > 0:
            release_s = np.ceil(release_s / self.quantum - 1e-12)
            release_s *= self.quantum
        self.release = release_s
        m = release_s.size
        self.done = np.full(m, -1.0)
        # A rate is infinite only when both ends are unbounded, and
        # then it is infinite for every transfer of the run.
        self._finite = not (np.isinf(self.up) and np.isinf(self.down))
        # One int64 word per position (see the class docstring): the
        # pair key above the low ``_shift`` bits, which hold
        # ``succ[p] + m`` (so they are never negative).
        positions = nodes.size
        index_dt = np.int32 if max(m, positions) < 2**31 else np.int64
        self._shift = shift = int(m + positions).bit_length()
        if (n_nodes * n_nodes) << shift > 2**63:
            raise SimulationError(
                f"fluid event wheel cannot index {positions} transfers "
                f"over {n_nodes} nodes in 64-bit words"
            )
        hop = np.arange(m - 1, m - 1 + positions, dtype=np.int64)
        hop += nodes * np.int64(n_nodes << shift)
        hop[1:] += nodes[:-1] * np.int64(1 << shift)
        last = nodes[offsets] * np.int64(n_nodes << shift)
        last += origins.astype(np.int64) << shift
        last += np.arange(m - 1, -1, -1)
        hop[offsets] = last
        self._hop = hop
        # Each chunk's first data-hop leaves the serving node, the last
        # position of its path.
        first = offsets + hops
        first -= 1
        self._first = first.astype(index_dt)
        # Member store: each member's ``succ`` (and, under a cap, its
        # activation sequence number), written once per transfer.
        total = int(hops.sum())
        self._member = np.empty(total, dtype=index_dt)
        self._member_seq = np.empty(total if self.cap else 0,
                                    dtype=index_dt)
        self._written = 0
        self._activated = 0
        # The bundle pool (rows [0, _size) are live): integer columns
        # _SENDER, _RECEIVER (offset by n_nodes), _START, _COUNT.
        self._size = 0
        self._pool = np.empty((4, 0), dtype=np.intp)
        self._remaining = np.empty(0, dtype=np.float64)
        self._rate = np.empty(0, dtype=np.float64)
        self._scratch = np.empty(0, dtype=np.float64)
        self._grow(256)
        # Per-node active transfer counts (out-degrees, then
        # in-degrees) and the fair shares of the links they divide.
        self._degree = np.zeros(2 * n_nodes, dtype=np.int64)
        self._link = np.repeat([self.up, self.down], n_nodes)
        self._share = np.empty(2 * n_nodes, dtype=np.float64)
        # Admission queue (cap > 0 only): a request log of positions in
        # request order, one slot per transfer, threaded into one FIFO
        # list per sender (``_next`` links a request to its sender's
        # next one).
        log = total if self.cap else 0
        self._log = np.empty(log, dtype=index_dt)
        self._next = np.empty(log, dtype=index_dt)
        self._logged = 0
        self._head = np.zeros(n_nodes, dtype=np.int64)
        self._tail = np.zeros(n_nodes, dtype=np.int64)
        self._queued = np.zeros(n_nodes, dtype=np.int64)
        self._last = 0.0
        self._gen = 0

    # -- helpers -------------------------------------------------------

    def _grow(self, need: int) -> None:
        """Make room for *need* pool rows, doubling the capacity."""
        capacity = self._remaining.size
        if need <= capacity:
            return
        capacity = max(need, 2 * capacity)
        b = self._size
        pool = np.empty((4, capacity), dtype=np.intp)
        pool[:, :b] = self._pool[:, :b]
        self._pool = pool
        for name in ("_remaining", "_rate", "_scratch"):
            new = np.empty(capacity, dtype=np.float64)
            new[:b] = getattr(self, name)[:b]
            setattr(self, name, new)

    def _enqueue(self, positions: np.ndarray) -> None:
        """Request the transfers at *positions* (activate or queue)."""
        if positions.size == 0:
            return
        if self.cap == 0:
            self._activate(positions)
            return
        k = positions.size
        p = self._logged
        self._log[p:p + k] = positions
        self._logged = p + k
        # Chain each sender's new requests in request order, behind
        # the ones it already has queued.
        sender = self.nodes[positions]
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

    def _activate(self, positions: np.ndarray) -> None:
        """Start the transfers at *positions*, one pool row per bundle."""
        k = positions.size
        hop = self._hop[positions]
        w = self._written
        if self.cap:
            order = hop.argsort()
            hop = hop[order]
            np.add(order, self._activated, out=self._member_seq[w:w + k])
            self._activated += k
        else:
            # Members of one bundle are interchangeable, so any order
            # within a pair will do.
            hop.sort()
        key = hop >> self._shift
        hop &= (1 << self._shift) - 1
        np.subtract(hop, self.release.size, out=self._member[w:w + k],
                    casting="unsafe")
        self._written = w + k
        heads = (key[1:] != key[:-1]).nonzero()[0]
        rows = heads.size + 1
        b = self._size
        self._grow(b + rows)
        pool = self._pool[:, b:b + rows]
        start = pool[_START]
        start[0] = w
        np.add(heads, w + 1, out=start[1:])
        count = pool[_COUNT]
        count[:-1] = start[1:]
        count[-1] = w + k
        count -= start
        np.divmod(key[start - w], self.n_nodes,
                  out=(pool[_SENDER], pool[_RECEIVER]))
        pool[_RECEIVER] += self.n_nodes
        np.add.at(self._degree, pool[_SENDER], count)
        np.add.at(self._degree, pool[_RECEIVER], count)
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
        take = np.minimum(self.cap - self._degree[:self.n_nodes],
                          self._queued)
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
        self._activate(self._log[admitted])

    def _recompute_rates(self) -> None:
        """Fair-share rate per bundle at the current instant.

        An idle node's share divides by zero; :meth:`run` ignores that
        warning once around the whole event loop.
        """
        b = self._size
        if b == 0 or not self._finite:
            return
        share = np.divide(self._link, self._degree, out=self._share)
        rate = self._rate[:b]
        receiver_share = self._scratch[:b]
        # Pool indices are below 2 * n_nodes by construction; "clip"
        # only spares take its per-element bounds error path.
        share.take(self._pool[_SENDER, :b], out=rate, mode="clip")
        share.take(self._pool[_RECEIVER, :b], out=receiver_share,
                   mode="clip")
        np.minimum(rate, receiver_share, out=rate)

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
        """Retire finished bundles; chain or finish their transfers."""
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
        retired = self._pool.take(rows, axis=1)
        count = retired[_COUNT]
        slots = _ranges(retired[_START], count)
        if self.cap:
            # Retire in activation order, as one active list would.
            slots = slots[self._member_seq[slots].argsort()]
        np.subtract.at(self._degree, retired[_SENDER], count)
        np.subtract.at(self._degree, retired[_RECEIVER], count)
        self._remove(rows)
        following = self._member[slots]
        last_hop = following < 0
        self.done[~following[last_hop]] = now
        self._enqueue(following[~last_hop])

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
            for column in (*self._pool, self._remaining):
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
            when = _snap_up(when, self.quantum)
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
        # Chunks released together request their first hops in chunk
        # order, which only a concurrency cap's FIFO queues observe.
        order = np.argsort(self.release,
                           kind="stable" if self.cap else None)
        sorted_release = self.release[order]
        boundaries = np.concatenate((
            [0],
            np.flatnonzero(sorted_release[1:] != sorted_release[:-1]) + 1,
            [sorted_release.size],
        ))
        times = sorted_release[boundaries[:-1]].tolist()
        del sorted_release
        first = self._first[order]
        del order
        scheduler = EventScheduler()
        for when, lo, hi in zip(times, boundaries[:-1], boundaries[1:]):

            def release(s: EventScheduler, t: float,
                        batch: np.ndarray = first[lo:hi]) -> None:
                self._advance(t)
                self._enqueue(batch)
                self._admit()
                self._recompute_rates()
                self._reschedule(s)

            scheduler.schedule_at(when, release, name="release")
        total_hops = int(self.hops.sum())
        releases = len(times)
        max_events = 4 * total_hops + 4 * releases + 1024
        try:
            with np.errstate(divide="ignore"):
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


#: Rows of :attr:`FluidWheel._pool`.
_SENDER, _RECEIVER, _START, _COUNT = range(4)


def _snap_up(t: float, quantum: float) -> float:
    """Round time *t* up to the next slot boundary.

    Bit for bit ``np.ceil(t / quantum - 1e-12) * quantum`` (the release
    times' vector form): ``math.ceil`` returns an int, so ``copysign``
    restores the ``-0.0`` that ``np.ceil`` gives in ``(-1, 0)``.
    """
    slot = t / quantum - 1e-12
    return math.copysign(math.ceil(slot), slot) * quantum


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
        recorder = _PathRecorder(int(targets.size))
        fast._route_slabs(file_origins, sizes, targets, result,
                          recorder=recorder)
        if targets.size:
            arrivals = PoissonArrivals(config.arrival_rate).sample(
                len(sizes), np.random.default_rng(config.arrival_seed)
            )
            result.latency_ms = self._timeline(
                recorder.assemble(), np.repeat(arrivals, sizes),
                np.repeat(file_origins, sizes),
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
        hops = paths.hops[routed]
        propagation = hops.astype(np.float64)
        propagation *= 2.0
        propagation *= hop_lat_s
        unbounded = (config.node_up_mbps == 0
                     and config.node_down_mbps == 0
                     and config.max_concurrent == 0)
        if unbounded:
            routed_latency = propagation
        else:
            release = release[routed]
            propagation += release
            wheel = FluidWheel(
                n_nodes=self.table.n_nodes,
                chunk_bytes=config.chunk_kib * 1024.0,
                up_bytes_s=config.node_up_mbps * MBPS_TO_BYTES,
                down_bytes_s=config.node_down_mbps * MBPS_TO_BYTES,
                max_concurrent=config.max_concurrent,
                quantum_s=config.time_quantum_ms / 1000.0,
                release_s=propagation,
                hops=hops,
                offsets=paths.offsets[routed],
                nodes=paths.nodes,
                origins=origins[routed],
            )
            del propagation
            routed_latency = wheel.run()
            routed_latency -= release
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
