"""The time-domain simulation backend (``--backend time``).

The hop kernel answers "how many hops and who forwarded"; this module
answers "*when* did each chunk arrive". It runs two phases, slab by
slab:

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
   recorded paths (the hop after position ``p`` is ``p - 1``); a
   transfer's rate is the fair share
   ``min(up / sender_out, down / receiver_in)`` of its endpoints'
   finite bandwidth, recomputed only at arrival/departure events;
   a release and the completion due at the same instant settle in
   one step.
   Fixed per-hop propagation (``2 * hops * hop_latency_ms``: request
   out, data back) is folded into the chunk's release time, so the
   wheel only simulates the bandwidth-bound data hops. A positive
   ``time_quantum_ms`` batches completions into slots, bounding the
   number of bandwidth recomputations for paper-scale runs. Transfers
   that start at one event on one (sender, receiver) pair share every
   float operation, so the wheel holds them as one *bundle* in a
   pool with incremental per-node degrees, and a concurrency cap
   queues requests in one FIFO per sender; a step costs O(bundles +
   changed transfers), and every completion time is bit-identical to
   simulating each transfer on its own, one event at a time.

**Memory.** The phases interleave: the wheel pulls release windows
(:class:`ReleaseWindow`, ``_WINDOW_CHUNKS`` chunks of a slab each) as
its clock nears their first arrival, and a scenario run routes and
records its next ``batch_files`` slab only when the wheel asks for
it. Arrivals never decrease in file order and a release is never
before its arrival, so a window's first arrival bounds every later
release. What a run holds is then O(slab + windows in flight): one
slab's recorded paths, and the wheel's words, member store, pool and
queues for the chunks in flight. O(run) are only the results:
``latency_ms`` (8 bytes per chunk) and the wheel's per-chunk
:attr:`FluidWheel.hops` (4 bytes per routed chunk). A static run is
one slab, so its recorded paths still grow with the workload, and a
wheel whose chunks all stay in flight (an overloaded network) holds
them all. The 1000-node × 10k-file ``churn:rate=0.1`` run with
``LATENCY_PROFILE`` (5.5M chunks) peaked at 796–822 MiB resident,
194 MiB of it set-up, when every path was recorded and the wheel
built over all of them at once; it now peaks at 255–256 MiB, its
run taking 3.9–4.0 s where it took 4.5–4.7 s (two runs each, 2-vCPU
shared container, peak RSS from ``getrusage``).

With unbounded bandwidth and no concurrency cap the wheel collapses
to closed form (latency = ``2 * hops * hop_latency``), which is both
the equivalence mode against the static kernel and the pure
propagation-delay model.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..engine.des import EventScheduler
from ..errors import SimulationError
from ..workloads.distributions import PoissonArrivals
from .base import SimulationBackend, register_backend
from .config import FastSimulationConfig
from .fast import FastSimulation
from .result import SimulationResult

__all__ = ["TimedSimulation", "TimeBackend", "ChunkPaths", "FluidWheel",
           "ReleaseWindow"]

#: Decimal megabit per second -> bytes per second.
MBPS_TO_BYTES = 1e6 / 8.0

#: A transfer counts as complete when this many bytes (or fewer)
#: remain — absorbs float error in ``remaining -= rate * dt``.
_EPS_BYTES = 1e-6

#: Routed chunks per release window: the wheel builds words and
#: release batches for this many chunks at a time.
_WINDOW_CHUNKS = 1 << 14


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


class _PathRecorder:
    """Accumulates per-wave receivers into flat per-chunk paths.

    The observer :class:`~repro.backends.fast.StreamSession` hands the
    fast kernel: every wave reports which chunk ids reached which
    nodes. The blocks of a split slab report from their own threads;
    :meth:`assemble` scatters by chunk id, so the order of the calls
    does not matter.
    """

    def __init__(self, n_chunks: int = 0) -> None:
        self.n_chunks = n_chunks
        self._waves: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._zero: list[np.ndarray] = []

    def record_wave(self, depth: int, ids: np.ndarray,
                    receivers: np.ndarray) -> None:
        """Chunks *ids* were forwarded to *receivers* at wave *depth*."""
        # The kernel reuses its wave buffers: keep copies, not views.
        if ids.size:
            self._waves.setdefault(depth, []).append(
                (ids.copy(), receivers.copy())
            )

    def record_zero_hop(self, ids: np.ndarray) -> None:
        """Chunks *ids* were local hits (no network path)."""
        if ids.size:
            self._zero.append(ids.copy())

    def assemble(self, lo: int = 0, hi: int | None = None) -> ChunkPaths:
        """Flatten the recorded waves into contiguous per-chunk paths.

        Every recorded id must lie in ``[lo, hi)`` (``hi`` defaults to
        ``n_chunks``); chunk ``lo + c`` is chunk *c* of the paths. The
        recorded waves are consumed: each is freed once written, so
        they do not outlive the paths, and the recorder is ready for
        the next slab.
        """
        n = (self.n_chunks if hi is None else hi) - lo
        if lo:
            for pairs in self._waves.values():
                for ids, _ in pairs:
                    ids -= lo
            for ids in self._zero:
                ids -= lo
        # A chunk in flight at wave d was in flight at every wave
        # before it, so its deepest wave is its hop count.
        hops = np.zeros(n, dtype=np.int32)
        node_dt = np.int32
        for depth in sorted(self._waves):
            for ids, receivers in self._waves[depth]:
                hops[ids] = depth
                node_dt = receivers.dtype
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hops, out=offsets[1:])
        nodes = np.empty(int(offsets[-1]), dtype=node_dt)
        # So its wave-d receiver sits at path position d-1.
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


@dataclass
class ReleaseWindow:
    """A run of routed chunks that :class:`FluidWheel` admits together.

    The columns are :class:`ChunkPaths`' for the window's routed
    chunks, in chunk order: ``hops``, and ``offsets`` into this
    window's own ``nodes``. ``release_s`` is each chunk's release
    time before slot snapping, ``origins`` its originator. ``ids`` say
    where the wheel writes each chunk's completion time in its
    ``done`` array: increasing, and above every earlier window's; a
    ``done`` slot between two of them that is not the wheel's must not
    hold a negative value. ``floor`` is at most the release time of
    every chunk in this window and in every later one, so the wheel
    need not load the window before its clock reaches ``floor``.
    """

    release_s: np.ndarray
    hops: np.ndarray
    offsets: np.ndarray
    nodes: np.ndarray
    origins: np.ndarray
    ids: np.ndarray
    floor: float = -math.inf


class FluidWheel:
    """Fair-share fluid transfer timeline over recorded paths.

    One instance simulates the data movement of every routed chunk:
    chunk *j* is released into the wheel at ``release[j]`` (arrival
    time plus total fixed propagation) and its payload then crosses
    the recorded path in reverse, one bandwidth-bound transfer per
    hop. The :class:`EventScheduler` sequences release batches and
    completion slots, with stale completion events invalidated by a
    generation counter (lazy cancellation); each live event is one
    :meth:`_step` (see "One step per instant" below).

    The wheel takes its chunks as an iterable of :class:`ReleaseWindow`
    s, with the ``done`` array their ids index.

    **Admission by release window.** The wheel holds state only for
    the windows in flight. It reads one window ahead, and loads it
    (builds its words and release batches) once the next release
    batch is not earlier than the window's ``floor``: any later
    release could then come from it. The next release batch is the
    only release event scheduled at a time, and it is scheduled
    before the step that releases the batch before it reschedules
    its completion slot. So every live completion event was scheduled
    after the pending release, and a release still fires before a
    completion due at the same instant, as when every release batch
    was scheduled up front; batches merge across windows, so chunks
    released at one instant still start in chunk order, in one step.
    A window's words are retired once all its chunks have finished.
    What the wheel holds is therefore O(window + transfers in flight):
    the words of the windows in flight, the releases not yet due, the
    bundle pool, and the member store and request log, both compacted
    in place when full. O(run) are only ``done`` and the per-chunk
    :attr:`hops`. On the ``latency-contended`` benchmark, whose chunks
    nearly all stay in flight, this took ``peak_rss_mib`` from 135.2 to
    121.2 MiB (medians of 10 alternating runs, seed 9001, 2-vCPU shared
    container).

    **Transfers are named by path position.** Chunk paths are disjoint
    slices of a run-wide position space (each window's ``nodes`` takes
    the positions after the window before it), so the data-hop that
    leaves position ``p`` is transfer *p*: a chunk's first data-hop
    leaves the serving node, the last position of its path, and the
    hop after transfer *p* is transfer ``p - 1``, down to the path's
    first position, whose data-hop delivers to the originator. Write
    ``succ[p]`` for ``p - 1``, or for ``~id`` (negative) at a path's
    first position: the last-hop mark, naming the ``done`` slot that
    hop writes. One int64 word per position, built when its window
    loads, is then all the per-transfer state the wheel keeps besides
    its member store: the pair key ``sender * n_nodes + receiver``
    above ``succ[p] + bias`` (so never negative; the bias is half the
    room the key leaves). Activating transfers gathers their words
    and sorts them, which groups them by pair and yields each
    member's ``succ`` without an argsort.

    Active transfers live in an **edge-bundle pool**. Transfers
    activated at the same event on the same (sender, receiver) pair
    start with the same bytes and always get the same rate, so every
    float operation on them — ``remaining -= rate * dt``, the
    ``remaining / rate`` minimum, the finish test — is the same; the
    pool keeps one row per such bundle with a member count. Members
    (their ``succ``) sit in a member store, sorted by pair within each
    activation batch, so a bundle is a ``(start, count)`` range of it.
    The pool's integer columns (sender, ``n_nodes + receiver``, start,
    count) are the rows of one matrix, so a retirement gathers them in
    one ``take``; finished bundles are swap-removed, and columns grow
    by doubling. Per-node degrees are one vector — out-degrees, then
    in-degrees — kept incrementally from the activated and retired
    bundles only, and a bundle's rate is ``min(share[sender],
    share[n_nodes + receiver])`` with ``share = link / degree``: the
    same division as per transfer. A step therefore costs
    O(bundles + changed transfers). On the ``latency-contended``
    benchmark's three inputs (~12k live bundles, ~900 transfers
    retiring and ~900 starting per completion) this cut the wheel,
    construction included, from 180 ms to 118 ms per input (median of
    11 interleaved rounds, process time, 2-vCPU shared container).
    Nearly every bundle's rate changes at every step (a median 98% of
    live bundles touch a node whose degree changed), so the
    recomputation stays a whole-pool pass.

    **One step per instant.** :meth:`_reschedule` puts the next
    completion slot at the earliest finish ``last + min(remaining /
    rate)``, snapped up to a slot boundary. With 10 ms slots a release
    nearly always lands on a slot where a completion is due, and the
    release's own reschedule would then put a new completion at that
    very instant, making the pending one stale. Instead, a release
    step that finds a bundle with no bytes left (``remaining <= 0``,
    so its ratio is at most 0; with both links unbounded, any bundle)
    completes and admits in place after it enqueues and admits, then
    recomputes rates and reschedules once. That is exact: the
    separate reschedule would land on this instant (when it snaps to
    itself), and the rates it computed would be overwritten before
    any time passed. A bundle left within ``(0, _EPS_BYTES]`` keeps
    the separate events, as its ratio can move the slot. On the
    benchmark's three inputs the scheduler fired 800/794/807 events
    (578/574/609 of them live) before, and fires 579/576/612
    (357/356/414 steps) now; the wheel, construction included, went
    from 96/101/108 ms to 86/89/98 ms (median of 11 interleaved rounds
    in one process, process time, 2-vCPU shared container).

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
                 windows: Iterable[ReleaseWindow],
                 done: np.ndarray) -> None:
        self.n_nodes = n_nodes
        self.chunk_bytes = float(chunk_bytes)
        self.up = up_bytes_s if up_bytes_s > 0 else np.inf
        self.down = down_bytes_s if down_bytes_s > 0 else np.inf
        self.cap = int(max_concurrent)
        self.quantum = float(quantum_s)
        self.done = done
        # A rate is infinite only when both ends are unbounded, and
        # then it is infinite for every transfer of the run.
        self._finite = not (np.isinf(self.up) and np.isinf(self.down))
        # Words (see the class docstring): the pair key above the low
        # ``_shift`` bits, which hold ``succ[p] + _bias``. One bit
        # under the sign bit stays free, so ids and positions up to
        # the bias fit; a node count that leaves no room refuses any.
        key_bits = (n_nodes * n_nodes - 1).bit_length()
        self._shift = max(62 - key_bits, 0)
        self._bias = (1 << self._shift) >> 1
        self._index_dt = np.int32
        # Word arena: position p's word is ``_hop[p - _base]``.
        self._hop = np.empty(0, dtype=np.int64)
        self._base = 0
        self._positions = 0
        self._transfers = 0
        # Every loaded window's hop counts, in load order.
        self._hops: list[np.ndarray] = []
        # Windows in flight, oldest first: (first id, id end, first
        # position).
        self._loaded: collections.deque[tuple[int, int, int]] = (
            collections.deque())
        # Each loaded window's releases not yet due, as a run of
        # batches: (next batch time, first id, index of the next
        # batch, batch times, batch bounds into the first positions,
        # the first positions in (time, id) order), in a heap.
        self._runs: list[tuple] = []
        self._batches = 0
        self._fired = 0
        # Member store: each member's ``succ`` (and, under a cap, its
        # activation sequence number).
        self._member = np.empty(0, dtype=self._index_dt)
        self._member_seq = np.empty(0, dtype=self._index_dt)
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
        # Admission queue (cap > 0 only): a request log of positions in
        # request order (-1 once admitted), threaded into one FIFO
        # list per sender (``_next`` links a request to its sender's
        # next one).
        self._log = np.empty(0, dtype=self._index_dt)
        self._next = np.empty(0, dtype=self._index_dt)
        self._logged = 0
        self._last = 0.0
        self._gen = 0
        self._windows = iter(windows)
        self._upcoming: ReleaseWindow | None = None
        self._upcoming_floor = -math.inf
        self._pull()
        self._load_due()
        # Per-node active transfer counts (out-degrees, then
        # in-degrees) and the fair shares of the links they divide.
        self._degree = np.zeros(2 * n_nodes, dtype=np.int64)
        self._link = np.repeat([self.up, self.down], n_nodes)
        self._share = np.empty(2 * n_nodes, dtype=np.float64)
        # Each sender's request list: head and tail slots, length.
        self._head = np.zeros(n_nodes, dtype=np.int64)
        self._tail = np.zeros(n_nodes, dtype=np.int64)
        self._queued = np.zeros(n_nodes, dtype=np.int64)

    @property
    def hops(self) -> np.ndarray:
        """Every loaded chunk's hop count (its transfers), in order."""
        if len(self._hops) > 1:
            self._hops = [np.concatenate(self._hops)]
        return self._hops[0] if self._hops else np.empty(0, np.int32)

    # -- windows -------------------------------------------------------

    def _pull(self) -> None:
        """Read the next window with chunks ahead (None at the end)."""
        self._upcoming = None
        for window in self._windows:
            if window.hops.size:
                floor = window.floor
                if self.quantum > 0 and math.isfinite(floor):
                    floor = _snap_up(floor, self.quantum)
                self._upcoming, self._upcoming_floor = window, floor
                return

    def _load_due(self) -> None:
        """Load every window that may release with the next batch."""
        while self._upcoming is not None and (
                not self._runs
                or self._upcoming_floor <= self._next_release()):
            window, self._upcoming = self._upcoming, None
            self._load(window)
            # The window's arrays may be the last view of a routed
            # slab: drop them before reading ahead routes the next.
            del window
            self._pull()

    def _load(self, window: ReleaseWindow) -> None:
        """Build *window*'s words and merge its release batches."""
        hops = window.hops
        ids = window.ids
        nodes = window.nodes
        start = self._positions
        end = start + nodes.size
        id_end = int(ids[-1]) + 1
        if max(id_end, end) > self._bias:
            raise SimulationError(
                f"fluid event wheel cannot index {end} transfers "
                f"over {self.n_nodes} nodes in 64-bit words"
            )
        if max(id_end, end) >= 2**31 and self._index_dt is np.int32:
            self._index_dt = np.int64
            for name in ("_member", "_member_seq", "_log", "_next"):
                setattr(self, name, getattr(self, name).astype(np.int64))
        if not self._member.size:
            self._member = np.empty(nodes.size, dtype=self._index_dt)
            if self.cap:
                self._member_seq = np.empty(nodes.size,
                                            dtype=self._index_dt)
                self._log = np.empty(nodes.size, dtype=self._index_dt)
                self._next = np.empty(nodes.size, dtype=self._index_dt)
        shift = self._shift
        words = self._reserve(nodes.size)
        np.multiply(nodes, np.int64(self.n_nodes << shift), out=words)
        words[1:] += nodes[:-1] * np.int64(1 << shift)
        words += np.arange(start - 1 + self._bias, end - 1 + self._bias,
                           dtype=np.int64)
        offsets = window.offsets
        last = nodes[offsets] * np.int64(self.n_nodes << shift)
        last += window.origins.astype(np.int64) << shift
        last += (self._bias - 1) - ids
        words[offsets] = last
        self._positions = end
        self._transfers += nodes.size
        self.done[ids] = -1.0
        self._loaded.append((int(ids[0]), id_end, start))
        self._hops.append(hops)
        # Each chunk's first data-hop leaves the serving node, the last
        # position of its path. Chunks released together request
        # their first hops in id order, which only a concurrency cap's
        # FIFO queues observe.
        release = window.release_s
        if self.quantum > 0:
            release = np.ceil(release / self.quantum - 1e-12)
            release *= self.quantum
        order = np.argsort(release, kind="stable" if self.cap else None)
        times = release[order]
        first = offsets[order]
        first += hops[order]
        first += start - 1
        bounds = np.concatenate((
            [0], np.flatnonzero(times[1:] != times[:-1]) + 1, [times.size]))
        times = times[bounds[:-1]].tolist()
        heapq.heappush(self._runs, (times[0], int(ids[0]), 0, times,
                                    bounds.tolist(), first))
        self._batches += len(times)

    def _reserve(self, size: int) -> np.ndarray:
        """Arena room for the words of the next *size* positions.

        When the arena is full, the words of finished windows are
        retired and the live ones move to its front, or into a larger
        arena, so that room for one more window as big, and for half
        the words kept, stays free (the first arena is exactly full).
        A window has finished once no ``done`` slot from its first id
        to its last is negative: the wheel marks its own slots -1 on
        load, and the slots between them are not the wheel's.
        """
        start = self._positions
        if start + size - self._base > self._hop.size:
            loaded = self._loaded
            while loaded and self.done[loaded[0][0]:loaded[0][1]].min() >= 0:
                loaded.popleft()
            keep = loaded[0][2] if loaded else start
            live = self._hop[keep - self._base:start - self._base]
            need = live.size + size
            room = need + max(size, need // 2)
            arena = self._hop
            if room > arena.size:
                arena = np.empty(room if arena.size else need,
                                 dtype=np.int64)
            arena[:live.size] = live
            self._hop = arena
            self._base = keep
        return self._hop[start - self._base:start + size - self._base]

    def _next_release(self) -> float:
        """The time of the next release batch (runs must not be empty)."""
        return self._runs[0][0]

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

    def _words(self, positions: np.ndarray) -> np.ndarray:
        """The words of *positions* (a new array)."""
        if self._base:
            positions = positions - self._base
        return self._hop[positions]

    def _compact_members(self, need: int) -> None:
        """Move live members to the store's front to make room for *need*.

        Retired bundles leave holes; the live bundles' ranges are
        packed in pool order, or into a store four times the size they
        and *need* take (so a compaction is due only after three times
        as many writes).
        """
        b = self._size
        start = self._pool[_START, :b]
        count = self._pool[_COUNT, :b]
        slots = _ranges(start, count)
        live = slots.size
        members = self._member[slots]
        seqs = self._member_seq[slots] if self.cap else None
        if live + need > self._member.size // 4:
            size = 4 * (live + need)
            self._member = np.empty(size, dtype=self._index_dt)
            if self.cap:
                self._member_seq = np.empty(size, dtype=self._index_dt)
        self._member[:live] = members
        if self.cap:
            self._member_seq[:live] = seqs
        np.cumsum(count, out=start)
        start -= count
        self._written = live

    def _compact_log(self, need: int) -> None:
        """Move queued requests to the log's front to make room for *need*.

        Admitted requests leave holes; queued ones keep their order,
        and their links, heads and tails are renumbered.
        """
        queued = self._log[:self._logged] >= 0
        rank = np.cumsum(queued) - 1
        live = np.flatnonzero(queued)
        log = self._log[live]
        # A list's tail link is stale until a later request overwrites
        # it, so it may point anywhere: clip it, it is never followed.
        links = rank.take(self._next[live], mode="clip")
        if live.size + need > self._log.size // 2:
            size = 2 * (live.size + need)
            self._log = np.empty(size, dtype=self._index_dt)
            self._next = np.empty(size, dtype=self._index_dt)
        self._log[:live.size] = log
        self._next[:live.size] = links
        waiting = np.flatnonzero(self._queued)
        self._head[waiting] = rank[self._head[waiting]]
        self._tail[waiting] = rank[self._tail[waiting]]
        self._logged = live.size

    def _enqueue(self, positions: np.ndarray) -> None:
        """Request the transfers at *positions* (activate or queue)."""
        if positions.size == 0:
            return
        if self.cap == 0:
            self._activate(positions)
            return
        k = positions.size
        if self._logged + k > self._log.size:
            self._compact_log(k)
        p = self._logged
        self._log[p:p + k] = positions
        self._logged = p + k
        # Chain each sender's new requests in request order, behind
        # the ones it already has queued.
        sender = self._words(positions)
        sender >>= self._shift
        sender //= self.n_nodes
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
        if self._written + k > self._member.size:
            self._compact_members(k)
        hop = self._words(positions)
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
        np.subtract(hop, self._bias, out=self._member[w:w + k],
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
        positions = self._log[admitted]
        self._log[admitted] = -1
        self._activate(positions)

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

    def _count_event(self) -> None:
        """Count one fired event against the runaway guard."""
        self._fired += 1
        budget = 4 * self._transfers + 4 * self._batches + 1024
        if self._fired > budget:
            raise SimulationError(
                f"fluid event wheel exceeded {budget} events; set "
                f"time_quantum_ms to batch completions into slots"
            )

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
            self._count_event()
            if generation == self._gen:
                self._step(s, t)

        scheduler.schedule_at(when, handler, name="complete")

    def _schedule_release(self, scheduler: EventScheduler) -> None:
        """Schedule the next release batch, loading the windows it needs."""
        self._load_due()
        if self._runs:
            scheduler.schedule_at(self._next_release(), self._release,
                                  name="release")

    def _release(self, scheduler: EventScheduler, now: float) -> None:
        """Release the next batch: its chunks request their first hops.

        The batch joins every window's chunks released at *now*, in
        window order. The batch after it is scheduled first, so it
        keeps the lower sequence number against any completion this
        step schedules.
        """
        self._count_event()
        runs = self._runs
        parts = []
        while runs and runs[0][0] == now:
            _, window, at, times, bounds, first = heapq.heappop(runs)
            parts.append(first[bounds[at]:bounds[at + 1]])
            if at + 1 < len(times):
                heapq.heappush(runs, (times[at + 1], window, at + 1, times,
                                      bounds, first))
        self._batches -= len(parts) - 1
        self._schedule_release(scheduler)
        self._step(scheduler, now,
                   parts[0] if len(parts) == 1 else np.concatenate(parts))

    def _due_now(self, now: float) -> bool:
        """Whether :meth:`_reschedule` would put the next slot at *now*.

        It would when *now* snaps to itself and a bundle has no bytes
        left (its ``remaining / rate`` is at most 0) or, with both
        links unbounded, any bundle is active. Rates are not read, so
        they need not be current. A zero *now* answers False: there
        the slot could come back as the other zero.
        """
        b = self._size
        if b == 0 or now == 0:
            return False
        if self.quantum > 0 and _snap_up(now, self.quantum) > now:
            return False
        return not self._finite or self._remaining[:b].min() <= 0

    def _step(self, scheduler: EventScheduler, now: float,
              batch: np.ndarray | None = None) -> None:
        """One event: a release *batch*, or a completion slot if None.

        A release settles a completion due at *now* in the same step
        (see "One step per instant" in the class docstring).
        """
        self._advance(now)
        if batch is not None:
            self._enqueue(batch)
            self._admit()
        if batch is None or self._due_now(now):
            self._complete(now)
            self._admit()
        self._recompute_rates()
        self._reschedule(scheduler)

    # -- driver --------------------------------------------------------

    def run(self) -> np.ndarray:
        """Simulate every transfer; returns per-chunk completion times."""
        scheduler = EventScheduler()
        self._schedule_release(scheduler)
        if len(scheduler):
            with np.errstate(divide="ignore"):
                scheduler.run_all(max_events=sys.maxsize)
        if self._upcoming is not None or any(
                self.done[lo:hi].min() < 0 for lo, hi, _ in self._loaded):
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

    def run(self, workload=None) -> SimulationResult:
        """Route, record paths, and simulate the transfer timeline.

        Routing runs slab by slab (:meth:`FastSimulation._slabs`) as
        the wheel asks for windows, so a scenario run holds one slab's
        paths at a time.
        """
        started = time.perf_counter()
        config = self.config
        fast = self._fast
        if workload is None:
            workload = config.workload()
        result = fast.new_result()
        file_origins, sizes, targets = fast._workload_columns(workload)
        result.files += len(sizes)
        arrivals = PoissonArrivals(config.arrival_rate).sample(
            len(sizes), np.random.default_rng(config.arrival_seed)
        )
        # One slot per chunk; the retrieved chunks fill a prefix, in
        # chunk order, and ``retrieved`` counts them per file.
        latency = np.empty(int(sizes.sum()), dtype=np.float64)
        retrieved = np.zeros(len(sizes), dtype=np.int64)
        recorder = _PathRecorder()
        with contextlib.closing(fast._slabs(
                file_origins, sizes, targets, result,
                recorder=recorder)) as slabs:
            windows = self._windows(slabs, recorder, file_origins, sizes,
                                    arrivals, latency, retrieved)
            if self._unbounded:
                for _ in windows:
                    pass
            else:
                FluidWheel(
                    n_nodes=self.table.n_nodes,
                    chunk_bytes=config.chunk_kib * 1024.0,
                    up_bytes_s=config.node_up_mbps * MBPS_TO_BYTES,
                    down_bytes_s=config.node_down_mbps * MBPS_TO_BYTES,
                    max_concurrent=config.max_concurrent,
                    quantum_s=config.time_quantum_ms / 1000.0,
                    windows=windows, done=latency,
                ).run()
        latency = latency[:int(retrieved.sum())]
        if not self._unbounded:
            # Completion times become latencies (ms), file by file.
            step = config.batch_files
            at = 0
            for lo in range(0, len(sizes), step):
                counts = retrieved[lo:lo + step]
                block = latency[at:at + int(counts.sum())]
                block -= np.repeat(arrivals[lo:lo + step], counts)
                block *= 1000.0
                at += block.size
        result.latency_ms = latency
        result.elapsed_seconds = time.perf_counter() - started
        return result

    @property
    def _unbounded(self) -> bool:
        """Whether latency is closed form: no bandwidth bound, no cap."""
        config = self.config
        return (config.node_up_mbps == 0 and config.node_down_mbps == 0
                and config.max_concurrent == 0)

    def _windows(self, slabs, recorder: _PathRecorder,
                 file_origins: np.ndarray, sizes: np.ndarray,
                 arrivals: np.ndarray, latency: np.ndarray,
                 retrieved: np.ndarray):
        """Each routed slab's chunks, as the wheel's release windows.

        Drains *recorder* after each slab of *slabs* routes; with
        closed-form latency, nothing is yielded (see
        :meth:`_slab_windows`).
        """
        chunk_offsets = np.concatenate(([0], np.cumsum(sizes)))
        sample = 0
        for start, stop in slabs:
            lo, hi = int(chunk_offsets[start]), int(chunk_offsets[stop])
            sample = yield from self._slab_windows(
                recorder.assemble(lo, hi), sample,
                chunk_offsets[start:stop + 1] - lo, file_origins[start:stop],
                sizes[start:stop], arrivals[start:stop], latency,
                retrieved[start:stop])

    def _slab_windows(self, paths: ChunkPaths, sample: int,
                      chunk_offsets: np.ndarray, file_origins: np.ndarray,
                      sizes: np.ndarray, arrivals: np.ndarray,
                      latency: np.ndarray, retrieved: np.ndarray):
        """One slab's release windows; returns the next latency slot.

        The slab's kept (retrieved) chunks take the latency slots from
        *sample* on, in chunk order, and *retrieved* counts them per
        file. Each window spans ``_WINDOW_CHUNKS`` of the slab's chunks
        and holds its routed ones. A local hit's slot gets its arrival,
        so the final subtraction leaves 0; with closed-form latency
        every slot gets its final value instead, and nothing is
        yielded. Fixed per-hop propagation (``2 * hops *
        hop_latency``) is folded into each release time.
        """
        hops = paths.hops
        kept = hops > 0
        kept[paths.zero_ids] = True
        files = np.flatnonzero(sizes)
        retrieved[files] = np.add.reduceat(kept, chunk_offsets[files],
                                           dtype=np.int64)
        zero_bounds = np.searchsorted(
            paths.zero_ids, np.arange(0, hops.size + _WINDOW_CHUNKS,
                                      _WINDOW_CHUNKS))
        hop_lat_s = self.config.hop_latency_ms / 1000.0
        for window, lo in enumerate(range(0, hops.size, _WINDOW_CHUNKS)):
            hi = min(lo + _WINDOW_CHUNKS, hops.size)
            # Each kept chunk's latency slot, and each chunk's file,
            # indexed from lo.
            slot = np.cumsum(kept[lo:hi])
            slot += sample - 1
            sample = int(slot[-1]) + 1
            first_file, end_file = np.searchsorted(
                chunk_offsets, (lo, hi - 1), "right")
            spans = np.clip(chunk_offsets[first_file - 1:end_file + 1],
                            lo, hi)
            file_of = np.repeat(np.arange(first_file - 1, end_file),
                                np.diff(spans))
            zero = paths.zero_ids[zero_bounds[window]:zero_bounds[window + 1]]
            zero -= lo
            local = np.flatnonzero(hops[lo:hi])
            window_hops = hops[lo:hi][local]
            propagation = window_hops.astype(np.float64)
            propagation *= 2.0
            propagation *= hop_lat_s
            if self._unbounded:
                latency[slot[zero]] = 0.0
                latency[slot[local]] = propagation * 1000.0
                continue
            latency[slot[zero]] = arrivals[file_of[zero]]
            if not local.size:
                continue
            file = file_of[local]
            arrival = arrivals[file]
            propagation += arrival
            offsets = paths.offsets[lo:hi][local]
            first = int(offsets[0])
            offsets -= first
            yield ReleaseWindow(
                release_s=propagation, hops=window_hops, offsets=offsets,
                nodes=paths.nodes[first:first + int(offsets[-1]
                                                   + window_hops[-1])],
                origins=file_origins[file], ids=slot[local],
                floor=float(arrival[0]),
            )
        return sample


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
