"""Vectorized whole-network simulator for paper-scale runs.

The paper's headline experiment downloads 10 000 files of 100–1000
chunks each — about 5.5 million chunk retrievals over a 1000-node
overlay. The object-oriented reference simulator
(:class:`~repro.swarm.network.SwarmNetwork`) observes every SWAP
channel and is deliberately not built for that volume; this module is
the production backend:

* :class:`NextHopTable` precomputes, for every (node, target address)
  pair, the greedy forwarding decision as one dense numpy matrix —
  routing a chunk becomes a table lookup;
* :class:`FastSimulation` feeds the workload as per-chunk
  origin/target columns, slab by slab, and routes every in-flight
  chunk in lockstep hop waves, accumulating exactly the per-node
  quantities the paper's figures need (chunks forwarded, chunks
  served as paid first hop, income in accounting units).

The hop-wave loop is memory-bandwidth-bound (tens of millions of
random table gathers), so the kernel is built around a compact
**terminal-coded** table: entries live in the smallest sufficient
unsigned dtype (:func:`table_entry_dtype`, ``uint16`` for overlays up
to 16 383 nodes), and each coded value folds the forwarding decision
and its terminal classification into one number —

========================= =========================================
coded value ``v``         meaning
========================= =========================================
``v < n``                 forward to node ``v`` (still in flight)
``n <= v < 2n``           arrive: next hop ``v - n`` is the storer
``2n <= v < 3n``          greedy stall: fall back to storer ``v-2n``
========================= =========================================

A hop wave is then one vector add, one ``np.take`` into a reused
buffer, and one ``np.bincount(minlength=3n)`` whose three bands give
the wave's forwarded counts, arrivals, and fallback count in a single
fused pass — no sentinel scan, no storer column in the wave state, no
per-wave ``astype`` widening. In-flight state (current node + table
row offset) ping-pongs between two preallocated buffer sets, so
steady-state waves allocate almost nothing; compared to the original
int64-state kernel this roughly halves the bytes moved per hop.

The waves only count integers, so a large slab routes on every CPU:
before anything is sorted it is cut into target ranges of about equal
chunk counts (:func:`_target_spans`), one per CPU of the process's
affinity (:func:`_cpu_budget`; a sweep pool worker caps it at its
share of the machine) and none under
:data:`_MIN_BLOCK_CHUNKS` chunks. Each block selects its chunks in
input order, drops the dead ones, stable-sorts its targets and runs
its waves — so the blocks laid end to end are the slab's stable sort.
Block 0 runs on the calling thread, the rest on a module-level thread
pool (numpy releases the GIL inside each gather, sort and pass). Each
block keeps private counters, merged after the join, and prices and
books its own wave-1 hops: the only floating-point sums, income and
expenditure, go into a slab ledger in block order, so every output is
bit-identical to the one-block loop.

Network dynamics run through the same kernel, epoch by epoch: the
workload is segmented into ``batch_files`` slabs, and a composed
:mod:`repro.scenarios` plan supplies each epoch's alive mask, storer
table (incrementally delta-patched and cached by chained fingerprint
in :mod:`repro.perf.table_cache`), cache mask, and policy overrides.
Dynamic epochs route at **static-kernel speed**: instead of carrying
a per-chunk storer column and decoding every gather, the plan keeps
the coded matrix itself patched in place with the sparse absolute
diffs of :func:`~repro.kademlia.table.coded_arrive_patch` (re-homed
storers' forward entries promoted into the arrive band, reverted on
epoch exit via the recorded undo log), and the banded wave loop adds
only a per-hop gather of a 3n-entry dead-value LUT: coded values that
point at dead nodes are sparsely rewritten to the fallback band of
the epoch's (live) storer, exactly the greedy-stall semantics of the
decoded three-column mode kept as the test oracle
``tests/backends/decoded_oracle.py``.

A generated workload's file-level draws (pool, originators, sizes) are
made up front, but each later slab's chunk targets are drawn, and its
origins repeated per chunk, on a helper thread while the slab before
it routes: numpy draws the same values piecewise as in one call, so
every counter is the whole-workload flatten's, while a scenario run
holds the table plus two slabs rather than the whole workload's columns.

The ``time`` backend records its per-chunk paths through this same
kernel: a :class:`StreamSession` built with a ``recorder`` threads a
chunk-id column through the waves and reports each wave's receivers
to it. Without a recorder the headline path pays one ``is None``
check per wave.

Equivalence with the reference implementation is asserted by
``tests/integration/test_fast_vs_reference.py`` and
``tests/backends/test_equivalence.py`` on shared overlays. Overlays
are cached per configuration; next-hop tables are memoized by overlay
fingerprint in :mod:`repro.perf.table_cache`, which also attaches
tables published over shared memory instead of rebuilding them (the
sweep-worker path).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from ..errors import ConfigurationError
from ..kademlia.address import (
    bit_length_array,
    target_dtype,
    xor_nearest_fill,
)
from ..kademlia.overlay import Overlay, OverlayConfig
from ..workloads.distributions import OriginatorPool, UniformFileSize
from ..workloads.generators import DownloadWorkload
from .base import SimulationBackend, register_backend
from .config import FastSimulationConfig
from .result import SimulationResult

__all__ = [
    "FastSimulationConfig",
    "NextHopTable",
    "SimulationResult",
    "FastSimulation",
    "StreamSession",
    "FastBackend",
    "clear_caches",
    "cached_overlay",
    "cap_cpu_budget",
    "install_overlay",
    "cached_next_hop_table",
    "overlay_key",
    "table_entry_dtype",
    "target_dtype",
    "MAX_FAST_BITS",
    "TABLE_BUILD_LOG_ENV",
]

#: Maximum address width the vectorized backend supports; wider
#: spaces would need a sparse storer/next-hop representation.
MAX_FAST_BITS = 22

#: When set, every cold :class:`NextHopTable` build appends one
#: ``"<fingerprint> <pid>"`` line to the named file. The instrumented
#: sweep tests use this to prove a multi-worker sweep builds each
#: topology's table exactly once, independent of machine speed.
TABLE_BUILD_LOG_ENV = "REPRO_TABLE_BUILD_LOG"

_OVERLAY_CACHE: dict[tuple, Overlay] = {}

#: The fewest chunks one routing block takes. A slab splits into at
#: most one block per CPU and never into blocks smaller than this, so
#: ``serve``'s ~1k-chunk micro-batches stay one block and a thread
#: hand-off is only paid where a block's waves dwarf it.
_MIN_BLOCK_CHUNKS = 1 << 15

#: Runs blocks 1.. of a split slab or lanes 1.. of a table build
#: (block 0 runs on the calling thread); created on first use,
#: forgotten in forked children.
_BLOCK_POOL = None
_BLOCK_POOL_WORKERS = 0


#: A ceiling on :func:`_cpu_budget` for this whole process (``None``:
#: the affinity alone). A sweep pool worker sets its CPU share here.
_CPU_CAP: int | None = None


def _cpu_budget() -> int:
    """How many CPUs this process may run on: its affinity, capped by
    :func:`cap_cpu_budget`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        cpus = os.cpu_count() or 1
    return cpus if _CPU_CAP is None else min(cpus, _CPU_CAP)


def cap_cpu_budget(cpus: int) -> None:
    """Route and build tables on at most *cpus* CPUs in this process.

    Process-wide and permanent: a spawned sweep worker, one of N
    sharing the machine, calls it once before its first point so that
    it splits slabs into its own share of blocks rather than every
    CPU's. The outputs do not depend on the block count.
    """
    global _CPU_CAP
    if cpus < 1:
        raise ConfigurationError(f"CPU cap must be >= 1, got {cpus}")
    _CPU_CAP = cpus


#: log2 of the bins of the target histogram that places block edges.
_EDGE_BITS = 10


def _target_spans(targets: np.ndarray, bits: int) -> list[tuple[int, int]]:
    """Target ranges ``[lo, hi)`` cutting a slab into routing blocks.

    Each inner edge is the first bin edge, in a histogram of the
    targets' top :data:`_EDGE_BITS` bits, with at least its equal share
    of the chunks below it; a block may be empty when the targets
    cluster. Any edges give the same outputs: they only set the load
    balance.
    """
    space = 1 << bits
    size = targets.size
    if size < 2 * _MIN_BLOCK_CHUNKS:
        return [(0, space)]
    blocks = min(size // _MIN_BLOCK_CHUNKS, _cpu_budget())
    if blocks < 2:
        return [(0, space)]
    shift = max(bits - _EDGE_BITS, 0)
    # 2**15 to 2**16 evenly strided targets place the edges about as
    # evenly as all of them, at a fraction of the pass.
    sample = targets[::max(size >> 15, 1)]
    below = np.cumsum(np.bincount(sample >> shift,
                                  minlength=space >> shift))
    quotas = [sample.size * k // blocks for k in range(1, blocks)]
    edges = [0, *((np.searchsorted(below, quotas) + 1) << shift).tolist(),
             space]
    return list(zip(edges[:-1], edges[1:]))


def _block_pool(workers: int):
    """The thread pool for split slabs and table-build lanes, with at
    least *workers* threads.

    A pool that is too small is dropped, not shut down: a caller that
    still holds it can finish its submissions, and its idle threads
    exit once it is collected.
    """
    global _BLOCK_POOL, _BLOCK_POOL_WORKERS
    if _BLOCK_POOL is None or _BLOCK_POOL_WORKERS < workers:
        _BLOCK_POOL = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-waves"
        )
        _BLOCK_POOL_WORKERS = workers
    return _BLOCK_POOL


def _forget_block_pool() -> None:
    """A forked child has none of its parent's pool threads."""
    global _BLOCK_POOL, _BLOCK_POOL_WORKERS
    _BLOCK_POOL = None
    _BLOCK_POOL_WORKERS = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_block_pool)


def _run_blocks(route, spans: list[tuple]) -> list:
    """``route(*span)`` for every span; block 0 on the calling thread.

    Every submitted block has finished before this returns *or*
    raises: blocks write into the caller's arrays (a slab's, or the
    columns of a table being built) and may read the epoch's patched
    matrix, so none may outlive the call. Blocks start in order (one
    may wait on those before it); the first error in order is raised.
    """
    futures = []
    try:
        if len(spans) > 1:
            pool = _block_pool(len(spans) - 1)
            for span in spans[1:]:
                futures.append(pool.submit(route, *span))
        head = route(*spans[0])
    finally:
        if futures:
            wait(futures)
    return [head] + [future.result() for future in futures]


class _BlockCounts:
    """One block's private integer counters, merged after the join."""

    __slots__ = ("forwarded", "first_hop", "fallbacks", "total_hops",
                 "local_hits", "cache_hits", "unavailable", "hops")

    def __init__(self) -> None:
        self.forwarded = None
        self.first_hop = None
        self.fallbacks = 0
        self.total_hops = 0
        self.local_hits = 0
        self.cache_hits = 0
        self.unavailable = 0
        self.hops: dict[int, int] = {}


class _SlabLedger:
    """A slab's first-hop income and expenditure for one phase.

    The first block to book opens each sum with a weighted bincount,
    later ones go on with ``np.add.at``: the bits of one bincount over
    the blocks laid end to end, and for a lone block that bincount.
    """

    def __init__(self, blocks: int, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.sums = None  # [income, expenditure] once a block books
        # Only later blocks wait on a turn, so the last block (a lone
        # one included) has none to pass.
        self._turns = [threading.Event() for _ in range(blocks - 1)]

    def book(self, block: int, servers=None, origins=None, prices=None) -> None:
        """Add block *block*'s payments once every block before it has
        passed its turn, then pass. With none, only pass: a block that
        books nothing, or fails, must still pass."""
        try:
            if servers is None:
                return
            for turn in self._turns[:block]:
                turn.wait()
            if self.sums is None:
                self.sums = [np.bincount(column, weights=prices, minlength=self.n_nodes)
                             for column in (servers, origins)]
            else:
                for total, column in zip(self.sums, (servers, origins)):
                    np.add.at(total, column, prices)
        finally:
            if block < len(self._turns):
                self._turns[block].set()


def _merge_counts(result: SimulationResult,
                  blocks: list[_BlockCounts]) -> None:
    """Add every block's counters into *result*.

    Integer sums are order-free. New hop-histogram keys go in in
    increasing hop order — the order one unsplit wave loop inserts
    them in, and so the order of each block's own histogram — so the
    histogram's key order is split-invariant too.
    """
    for counts in blocks:
        if counts.forwarded is not None:
            result.forwarded += counts.forwarded
            result.first_hop += counts.first_hop
        result.fallbacks += counts.fallbacks
        result.total_hops += counts.total_hops
        result.local_hits += counts.local_hits
        result.cache_hits += counts.cache_hits
        result.unavailable += counts.unavailable
    hops = blocks[0].hops
    if len(blocks) > 1:
        hops = {hop: sum(counts.hops.get(hop, 0) for counts in blocks)
                for hop in sorted({hop for counts in blocks
                                   for hop in counts.hops})}
    histogram = result.hop_histogram
    for hop, count in hops.items():
        histogram[hop] = histogram.get(hop, 0) + count


def table_entry_dtype(n_nodes: int) -> np.dtype:
    """Smallest unsigned dtype for the terminal-coded table.

    Stored coded values reach ``3 * n_nodes - 1`` (the fallback band),
    the wave kernel's transient local-hit band reaches ``4 * n_nodes
    - 1``, and the dtype's maximum is reserved as the raw-table
    sentinel — so ``4 * n_nodes`` must stay strictly below it;
    exceeding every candidate dtype raises instead of silently
    wrapping.
    """
    for candidate in (np.uint16, np.uint32):
        if 0 < 4 * n_nodes < np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise ConfigurationError(
        f"n_nodes={n_nodes} exceeds the widest supported table dtype: the "
        f"terminal-coded table needs values up to 4*n_nodes in uint32 "
        f"with the maximum reserved as the raw-table sentinel"
    )


def clear_caches() -> None:
    """Drop every process-global simulation cache.

    Covers the overlay cache, the :mod:`repro.perf` dense-table cache
    (memoized and shared-memory-registered :class:`NextHopTable`\\ s,
    plus the writable coded-matrix working copies handed to epoch
    plans), and the delta-fingerprinted epoch cache of storer tables
    and sparse coded patches — so tests cannot leak state across
    modules through any of them. Kept as that test seam: the package
    never needs to forget its caches.
    """
    from ..perf.table_cache import (
        global_epoch_table_cache,
        global_table_cache,
    )

    _OVERLAY_CACHE.clear()
    global_table_cache().clear()
    global_epoch_table_cache().clear()


def overlay_key(config: OverlayConfig) -> tuple:
    """Hashable cache key covering every overlay-shaping config field.

    The single source of truth for "same topology config": the
    in-process overlay cache and the sweep executor's published-table
    deduplication both key on it, so adding a field to
    :class:`OverlayConfig` only needs updating here.
    """
    return (
        config.n_nodes,
        config.bits,
        config.limits.default,
        tuple(sorted(config.limits.overrides.items())),
        config.seed,
        config.neighborhood_min,
        config.symmetric_neighborhood,
    )


def cached_overlay(config: OverlayConfig) -> Overlay:
    """Build (or reuse) the overlay for *config*."""
    key = overlay_key(config)
    overlay = _OVERLAY_CACHE.get(key)
    if overlay is None:
        overlay = Overlay.build(config)
        _OVERLAY_CACHE[key] = overlay
    return overlay


def install_overlay(overlay: Overlay) -> None:
    """Serve *overlay* from :func:`cached_overlay` for its config.

    Sweep workers install the overlay the parent published with its
    table, so they never rebuild it. An overlay already cached for
    the config is kept.
    """
    _OVERLAY_CACHE.setdefault(overlay_key(overlay.config), overlay)


def cached_next_hop_table(overlay: Overlay) -> "NextHopTable":
    """Build (or reuse) the next-hop table for *overlay*.

    Delegates to the process-global content-addressed
    :class:`repro.perf.table_cache.TableCache`: repeated calls for the
    same topology return one shared instance, and sweep workers that
    registered a shared-memory handle attach instead of building.
    """
    from ..perf.table_cache import global_table_cache

    return global_table_cache().get(overlay)


def _log_table_build(fingerprint: str) -> None:
    """Append a build event to the instrumentation log, when enabled."""
    path = os.environ.get(TABLE_BUILD_LOG_ENV)
    if not path:
        return
    # O_APPEND keeps concurrent single-line writes from interleaving
    # when several worker processes build (which the instrumented
    # tests exist to prove does NOT happen with the cache on).
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{fingerprint} {os.getpid()}\n")


class NextHopTable:
    """Dense greedy-forwarding table for one overlay.

    The table is built straight into :attr:`coded_transposed`, the
    terminal-coded ``[target, node]`` matrix the batched kernel routes
    through (see the module docstring's coding table). Each node's
    column comes from :func:`~repro.kademlia.xor_nearest_fill` over
    its sorted peers plus its own address: a target whose XOR-nearest
    key is a peer forwards there, and one nearest to the node itself
    is a greedy terminal. The peers come from the overlay's edge list
    (:meth:`~repro.kademlia.overlay.Overlay.edges`), fixed when the
    overlay was built, never from routing-table objects: the build
    makes none. Columns are filled 64 nodes at a time, terminal-coded
    against ``storer`` and copied in, on one lane per CPU of the
    process's affinity (at most one per group; one lane runs on the
    calling thread alone), so the coded matrix is the table's
    only representation and its bytes do not depend on the lane
    count. ``storer[t]`` is the dense index of the globally closest
    node. Both use :func:`table_entry_dtype`, whose maximum value,
    :attr:`sentinel`, marks a greedy terminal during the build;
    capacity is validated (never silently wrapped) at construction.
    """

    #: Node columns filled per ``[group, space]`` buffer before they
    #: are terminal-coded and transposed into the coded matrix. The
    #: transposed copy costs mostly per target row, so a wider group
    #: is cheaper (on a 2-vCPU Xeon, 64 copies a paper-scale matrix in
    #: about 3/4 of 32's time), at 8 MiB of buffer per lane at 16 bits.
    _BUILD_GROUP = 64
    #: Entries after each buffer row: rows exactly ``2**bits`` entries
    #: apart map to the same cache sets, and the transposed copy reads
    #: all of them at once.
    _ROW_PAD = 32

    def __init__(self, overlay: Overlay) -> None:
        bits = overlay.space.bits
        if bits > MAX_FAST_BITS:
            raise ConfigurationError(
                f"the vectorized backend supports at most {MAX_FAST_BITS}-bit "
                f"spaces, got {bits}; use the reference SwarmNetwork"
            )
        self.overlay = overlay
        n_nodes = len(overlay)
        dtype = table_entry_dtype(n_nodes)
        self.entry_dtype = dtype
        self.sentinel = int(np.iinfo(dtype).max)
        self._n_nodes = n_nodes
        self.storer = overlay.storer_table().astype(dtype)
        self.addresses = overlay.address_array()
        self._coded = self._build_coded()
        self._flat: np.ndarray | None = None
        self._addresses32: np.ndarray | None = None
        self._shm_segments: tuple = ()
        _log_table_build(overlay.fingerprint())

    def _build_coded(self) -> np.ndarray:
        """The terminal-coded ``[target, node]`` matrix, filled per group.

        One lexsort over the overlay's edge list, plus one self entry
        per node, gives every node's sorted keys and their values as
        slices of two lists. The groups are split into contiguous
        runs of columns, one per lane (at most one per CPU), and each
        lane fills its run through its own group buffer: block 0 on
        the calling thread, the rest on the routing-block pool. Lanes
        write disjoint columns, so any lane count builds the same
        bytes.
        """
        overlay = self.overlay
        n = self._n_nodes
        size = overlay.space.size
        dtype = self.entry_dtype
        sentinel = dtype.type(self.sentinel)
        bounds, peers = overlay.edges()
        nodes = np.arange(n)
        owner = np.concatenate([np.repeat(nodes, np.diff(bounds)), nodes])
        node = np.concatenate([peers, nodes])
        key = self.addresses[node]
        order = np.lexsort((key, owner))
        keys = key[order].tolist()
        values = np.where(node == owner, self.sentinel, node)[order].tolist()
        starts = (bounds + np.arange(n + 1)).tolist()
        coded = np.empty((size, n), dtype=dtype)
        stalled_code = self.storer + dtype.type(2 * n)

        def fill(lo: int, hi: int) -> None:
            group = np.empty((self._BUILD_GROUP, size + self._ROW_PAD),
                             dtype=dtype)[:, :size]
            for start in range(lo, hi, self._BUILD_GROUP):
                stop = min(start + self._BUILD_GROUP, hi)
                rows = group[:stop - start]
                for row, first, last in zip(rows, starts[start:stop],
                                            starts[start + 1:stop + 1]):
                    xor_nearest_fill(keys[first:last], values[first:last],
                                     row)
                np.add(rows, dtype.type(n), out=rows, where=rows == self.storer)
                np.copyto(rows, stalled_code, where=rows == sentinel)
                coded[:, start:stop] = rows.T

        groups = -(-n // self._BUILD_GROUP)
        lanes = min(_cpu_budget(), groups)
        edges = [min(n, groups * lane // lanes * self._BUILD_GROUP)
                 for lane in range(lanes + 1)]
        _run_blocks(fill, list(zip(edges[:-1], edges[1:])))
        return coded

    @classmethod
    def from_arrays(cls, overlay: Overlay, *, coded: np.ndarray,
                    storer: np.ndarray, segments: tuple = ()
                    ) -> "NextHopTable":
        """Wrap a prebuilt (possibly shared-memory) coded table.

        *coded* is the C-contiguous terminal-coded ``[target, node]``
        matrix and *storer* the per-address storer index, both in the
        table's compact entry dtype. *segments* keeps whatever owns
        the backing buffers (shared-memory attachments) alive for the
        table's lifetime. Used by :mod:`repro.perf.shared` to attach
        published tables in sweep workers.
        """
        n_nodes = len(overlay)
        expected = table_entry_dtype(n_nodes)
        if coded.dtype != expected or storer.dtype != expected:
            raise ConfigurationError(
                f"prebuilt table arrays must use {expected} for "
                f"{n_nodes} nodes, got {coded.dtype}/{storer.dtype}"
            )
        if coded.shape != (overlay.space.size, n_nodes):
            raise ConfigurationError(
                f"prebuilt coded table has shape {coded.shape}, "
                f"expected {(overlay.space.size, n_nodes)}"
            )
        table = cls.__new__(cls)
        table.overlay = overlay
        table.entry_dtype = expected
        table.sentinel = int(np.iinfo(expected).max)
        table._n_nodes = n_nodes
        table.storer = storer
        table.addresses = overlay.address_array()
        table._coded = coded
        table._flat = None
        table._addresses32 = None
        table._shm_segments = tuple(segments)
        return table

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the underlying overlay."""
        return self._n_nodes

    @property
    def coded_transposed(self) -> np.ndarray:
        """Terminal-coded ``[target, node]`` matrix.

        The batched engine sorts in-flight chunks by target, so this
        layout turns every hop wave's table gather into a near
        sequential walk over compact rows; the terminal coding (see
        the module docstring) lets one bincount classify every hop.
        Set at construction, by the build or by :meth:`from_arrays`.
        """
        return self._coded

    @property
    def flat_coded(self) -> np.ndarray:
        """:attr:`coded_transposed` raveled to 1-D (zero-copy, cached).

        The hop kernel gathers through precomputed flat indices
        (``target * n_nodes + node``) with ``np.take(..., out=...)``,
        which — unlike 2-D fancy indexing — writes straight into a
        preallocated compact buffer.
        """
        if self._flat is None:
            self._flat = self.coded_transposed.reshape(-1)
        return self._flat

    @property
    def addresses32(self) -> np.ndarray:
        """Node addresses as ``int32`` (valid: spaces are <= 22 bits)."""
        if self._addresses32 is None:
            self._addresses32 = self.addresses.astype(np.int32)
        return self._addresses32


class FastSimulation:
    """Replays a download workload against a precomputed routing table."""

    def __init__(self, config: FastSimulationConfig) -> None:
        self.config = config
        self.overlay = cached_overlay(config.overlay_config())
        self.table = cached_next_hop_table(self.overlay)
        self.space = self.overlay.space
        n = self.table.n_nodes
        #: Coded hop value -> the node it names, over all four bands
        #: (``v mod n``): one gather decodes a wave's servers.
        self._servers_of = (np.arange(4 * n) % n).astype(
            self.table.entry_dtype)

    # ------------------------------------------------------------------
    # Pricing (vectorized mirror of repro.core.pricing)

    def _prices(self, server_addresses: np.ndarray,
                chunk_addresses: np.ndarray) -> np.ndarray:
        base = self.config.pricing_base
        if self.config.pricing == "flat":
            return np.full(len(chunk_addresses), base, dtype=np.float64)
        if self.config.pricing == "xor":
            distances = (server_addresses ^ chunk_addresses).astype(np.float64)
            return base * np.maximum(distances, 1.0) / self.space.size
        # proximity: base * max(bits - po, 1)
        diffs = server_addresses ^ chunk_addresses
        lengths = bit_length_array(diffs)  # == bits - po
        return base * np.maximum(lengths, 1).astype(np.float64)

    # ------------------------------------------------------------------
    # Execution

    def run(self, workload: DownloadWorkload | None = None
            ) -> SimulationResult:
        """Run the configured (or given) workload; returns the result.

        The workload is fed slab by slab (:meth:`_route_slabs`): a
        static run is one slab, and a scenario run of a generated
        workload draws each epoch's chunks just before routing them.
        """
        started = time.perf_counter()
        if workload is None:
            workload = self.config.workload()
        result = self.new_result()
        file_origins, sizes, targets = self._workload_columns(workload)
        result.files += len(sizes)
        self._route_slabs(file_origins, sizes, targets, result)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def new_result(self) -> SimulationResult:
        """A zeroed result over this simulation's overlay."""
        n = len(self.overlay)
        return SimulationResult(
            config=self.config,
            node_addresses=self.overlay.address_array().astype(np.int64),
            forwarded=np.zeros(n, dtype=np.int64),
            first_hop=np.zeros(n, dtype=np.int64),
            income=np.zeros(n, dtype=np.float64),
            expenditure=np.zeros(n, dtype=np.float64),
        )

    def flatten_events(self, events) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
        """Flatten a workload's download event stream into kernel columns.

        Returns ``(file_origins, sizes, targets)`` in the same dtypes
        and layout as ``_flatten_workload`` — per-file dense origin
        indices, per-file chunk counts, and the concatenated chunk
        addresses.
        """
        target_dt = target_dtype(self.space.bits)
        entry_dt = self.table.entry_dtype
        index_of = self.overlay.index_of
        origin_list: list[int] = []
        parts: list[np.ndarray] = []
        for event in events:
            origin_list.append(index_of(int(event.originator)))
            parts.append(
                np.asarray(event.chunk_addresses).astype(target_dt)
            )
        file_origins = np.asarray(origin_list, dtype=entry_dt)
        sizes = np.fromiter(
            (part.size for part in parts),
            dtype=np.int64, count=len(parts),
        )
        targets = (np.concatenate(parts) if parts
                   else np.empty(0, dtype=target_dt))
        return file_origins, sizes, targets

    # ------------------------------------------------------------------
    # Batched hot path

    def _route_slabs(self, file_origins: np.ndarray, sizes: np.ndarray,
                     targets, result: SimulationResult, *,
                     recorder=None) -> None:
        """Route a workload's columns through one stream session.

        The one-shot run is the streaming core fed slab by slab:
        static configs feed a single micro-epoch holding the entire
        workload (one kernel invocation), scenario configs feed one
        ``batch_files``-file slab per epoch — the same loop a live
        stream drives incrementally (:meth:`_slabs`).
        """
        for _ in self._slabs(file_origins, sizes, targets, result,
                             recorder=recorder):
            pass

    def _slabs(self, file_origins: np.ndarray, sizes: np.ndarray,
               targets, result: SimulationResult, *, recorder=None):
        """Route the workload slab by slab, yielding after each slab.

        *file_origins* and *sizes* are the per-file origin indices and
        chunk counts the slabs are cut on. *targets* is the flat
        chunk-address column or a function that draws the next *k* of
        them (:meth:`_workload_columns`). After the first slab, which
        is drawn before any routes, a helper thread repeats each
        slab's origins and draws its targets while the slab before it
        routes, in slab order. Each routed slab yields its file range
        ``(start, stop)``; the time backend drains its path recorder
        there, so a scenario run's paths never outlive their slab.
        With a *recorder* (the time backend's path recorder), a
        chunk's position in the workload is the id its path is
        recorded under.
        """
        if not len(sizes):
            return
        scenario = self.config.has_scenarios
        step = self.config.batch_files if scenario else len(sizes)
        starts = range(0, len(sizes), step)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        id_dt = np.int32 if offsets[-1] < 2**31 else np.int64

        def slab(start: int) -> tuple:
            stop = min(start + step, len(sizes))
            lo, hi = int(offsets[start]), int(offsets[stop])
            return (np.repeat(file_origins[start:stop], sizes[start:stop]),
                    targets(hi - lo) if callable(targets) else targets[lo:hi],
                    None if recorder is None
                    else np.arange(lo, hi, dtype=id_dt))

        with (ThreadPoolExecutor(1, thread_name_prefix="repro-draw") as ahead,
              StreamSession(self, result=result, recorder=recorder,
                            n_epochs=len(starts) if scenario else None) as session):
            for start in starts:
                origins, slab_targets, slab_ids = (
                    pending.result() if start else slab(start))
                if start + step < len(sizes):
                    pending = ahead.submit(slab, start + step)
                session.feed(origins, slab_targets, ids=slab_ids)
                del origins, slab_targets, slab_ids
                yield start, min(start + step, len(sizes))

    def _flatten_workload(self, workload):
        """(per-file origin indices, file sizes, flat targets) columns.

        The whole-workload form of :meth:`_workload_columns`: a
        generated workload's targets are drawn in one call.
        """
        file_origins, sizes, targets = self._workload_columns(workload)
        if callable(targets):
            targets = targets(int(sizes.sum()))
        return file_origins, sizes, targets

    def _workload_columns(self, workload):
        """(per-file origin indices, file sizes, targets) of a workload.

        For a plain :class:`DownloadWorkload` (uniform chunks, no
        catalog) the file-level columns are sampled in three RNG calls
        that reproduce the streaming generator's draw stream
        bit-for-bit, and *targets* is a function that draws the next
        *k* chunk addresses from the same generator: numpy generators
        yield identical values whether ``integers`` is called once for
        N draws, file-by-file, or slab by slab. Anything else (traces,
        Zipf catalogs, custom workloads) drains the event stream into
        a flat target column. Origins come out in the table's compact
        entry dtype and targets in the space's compact target dtype,
        so the routing kernel never widens them.
        """
        nodes = self.overlay.address_array()
        if (type(workload) is DownloadWorkload
                and workload.catalog_size == 0
                and type(workload.originators) is OriginatorPool
                and type(workload.file_size) is UniformFileSize):
            rng = np.random.default_rng(workload.seed)
            if workload.pool_seed is None:
                pool = workload.originators.members(np.asarray(nodes), rng)
            else:
                pool = workload.originators.members(
                    np.asarray(nodes),
                    np.random.default_rng(workload.pool_seed),
                )
            chosen = workload.originators.sample(
                pool, workload.n_files, rng
            )
            sizes = workload.file_size.sample(
                workload.n_files, rng
            ).astype(np.int64)
            order = np.argsort(nodes)
            file_origins = order[
                np.searchsorted(nodes, chosen, sorter=order)
            ].astype(self.table.entry_dtype)
            target_dt = target_dtype(self.space.bits)
            space_size = self.space.size

            def draw(count: int) -> np.ndarray:
                # For ranges up to 2**32 numpy draws the same values in
                # uint32 as in the per-event generator's uint64, into
                # a temporary half the size.
                return rng.integers(
                    0, space_size, size=count, dtype=np.uint32
                ).astype(target_dt, copy=False)

            return file_origins, sizes, draw
        return self.flatten_events(workload.events(nodes, self.space))

    def _route_batch(self, origins: np.ndarray, targets: np.ndarray,
                     result: SimulationResult, *,
                     ids: np.ndarray | None = None,
                     recorder=None,
                     cached: np.ndarray | None = None,
                     unpaid_origins: np.ndarray | None = None,
                     alive: np.ndarray | None = None,
                     dead_lut: np.ndarray | None = None,
                     storer_table: np.ndarray | None = None,
                     flat_coded: np.ndarray | None = None
                     ) -> np.ndarray | None:
        """Route one flattened batch of chunk retrievals in hop waves.

        Every scenario — static, churn, caching, free-riding, and any
        composition — and both the ``fast`` and ``time`` backends route
        through this one path and its one wave loop
        (:meth:`_route_block`).

        A large slab is cut in *target space* before anything is
        sorted (:func:`_target_spans`: one block per CPU, none under
        :data:`_MIN_BLOCK_CHUNKS` chunks). Block 0 runs on this thread
        and the rest on the block pool; each selects its chunks from
        the unsorted columns (in input order), drops its dead ones,
        stable-sorts its targets — so the blocks laid end to end are
        the slab's stable target sort — and routes them in waves over
        near-sequential table rows. Blocks count into private integer
        counters, merged after the join (:func:`_merge_counts`), and
        price their wave-1 hops element-wise. Income and expenditure,
        the only floating-point sums, are booked once per slab (once
        for cache hits, then once for the rest) in sorted slab order:
        each block books its wave 1 into the phase's
        :class:`_SlabLedger` in block order, and the ledgers are added
        to *result* after the join, in phase order. So every output is
        bit-identical however the slab split. A single CPU, or a slab
        under two blocks, runs the same code as one block with no
        histogram and no selection pass.

        ``alive`` (churn) makes each block drop the chunks whose origin
        or storer (in ``storer_table``) is offline, counted as
        ``unavailable``; with a ``cached`` mask too, the slab's dead
        flags are returned, so the caller can cache the kept targets
        in slab order. ``flat_coded`` selects the patched-static
        dynamics mode: the caller's epoch plan holds the coded matrix
        behind it patched to this epoch's storer set, ``dead_lut``
        flags coded values that point at dead nodes, and
        ``storer_table`` (full address space, the epoch's storers)
        re-homes those to the fallback band. Local hits are detected
        in-band at wave 1, so no prefilter is needed unless a
        ``cached`` mask requires the storer comparison anyway: cached
        chunks are then served by their first hop. ``recorder``, when
        given, observes every wave (see :meth:`_route_block`) and
        ``ids`` is the per-chunk id column it records paths under.
        """
        if origins.size == 0:
            return None
        table = self.table
        dtype = table.entry_dtype
        n = table.n_nodes
        storers = table.storer if storer_table is None else storer_table
        spans = _target_spans(targets, self.space.bits)
        split = len(spans) > 1
        offline = None if alive is None else ~alive
        dead = (np.zeros(origins.size, bool)
                if alive is not None and cached is not None else None)
        ledgers = [_SlabLedger(len(spans), n) for _ in range(1 if cached is None else 2)]
        waves = dict(
            unpaid_origins=unpaid_origins, recorder=recorder,
            dead_lut=dead_lut, fallback_storers=storer_table,
            flat_table=table.flat_coded if flat_coded is None
            else flat_coded,
        )

        def sorted_columns(lo: int, hi: int) -> tuple:
            """Block ``[lo, hi)``'s live chunks, target-sorted.

            Returns ``(tg, cur, row, ids, unavailable)``; the selection
            and sort temporaries are freed before the waves allocate.
            """
            at, org, tgt, chunk_ids = slice(None), origins, targets, ids
            if split:
                inside = targets < hi
                if lo:
                    inside &= targets >= lo
                at = np.flatnonzero(inside)
                org, tgt = np.take(origins, at), np.take(targets, at)
                if ids is not None:
                    chunk_ids = np.take(ids, at)
            unavailable = 0
            if offline is not None:
                # Under re-homing every epoch storer is alive, so the
                # second clause only bites for static placement.
                gone = np.take(offline, org)
                gone |= np.take(offline, np.take(storers, tgt))
                unavailable = int(np.count_nonzero(gone))
                if unavailable:
                    if dead is not None:
                        dead[at] = gone
                    kept = np.flatnonzero(~gone)
                    org, tgt = np.take(org, kept), np.take(tgt, kept)
                    if chunk_ids is not None:
                        chunk_ids = np.take(chunk_ids, kept)
            # Stable integer argsort on a compact unsigned key is a
            # radix/counting sort: O(n) for the paper's 16-bit space.
            order = np.argsort(tgt, kind="stable")
            tg = np.take(tgt, order)
            cur = np.take(org, order)
            if cur.dtype != dtype:
                cur = cur.astype(dtype)
            # Per-chunk table row offset, widened to intp exactly once
            # (dtype=intp forces the multiply loop out of the compact
            # dtype, which would silently wrap).
            row = np.multiply(tg, n, dtype=np.intp)
            if chunk_ids is not None:
                chunk_ids = np.take(chunk_ids, order)
            return tg, cur, row, chunk_ids, unavailable

        def route(block: int, lo: int, hi: int) -> list[_BlockCounts]:
            try:
                tg, cur, row, chunk_ids, unavailable = sorted_columns(lo, hi)
                books = [partial(ledger.book, block) for ledger in ledgers]
                if cached is None:
                    # Headline path (and patched-static dynamics): no
                    # storer column, no local-hit prefilter — wave 1
                    # detects local hits in-band.
                    counts = self._route_block(cur, row, tg, chunk_ids,
                                               book=books[0], **waves)
                    counts.unavailable = unavailable
                    return [counts]
                # Locals are prefiltered here (the cache split needs the
                # storer comparison anyway), so the in-band check finds
                # none.
                head = _BlockCounts()
                head.unavailable = unavailable
                local = cur == np.take(storers, tg)
                head.local_hits = int(np.count_nonzero(local))
                if head.local_hits:
                    head.hops[0] = head.local_hits
                    if recorder is not None:
                        recorder.record_zero_hop(chunk_ids[local])
                hits = np.take(cached, tg) & ~local
                # Cache hits are the same kernel asked to stop after the
                # (serving) first hop; the rest route in full.
                phases = [head]
                for phase, (mask, serves) in enumerate(((hits, True), (~local & ~hits, False))):
                    index = np.flatnonzero(mask)
                    phases.append(self._route_block(
                        np.take(cur, index), np.take(row, index),
                        np.take(tg, index),
                        None if chunk_ids is None
                        else np.take(chunk_ids, index),
                        book=books[phase], first_hop_serves=serves, **waves,
                    ))
                    ledgers[phase].book(block)  # booked or not, pass
                return phases
            finally:
                for ledger in ledgers:
                    ledger.book(block)

        # Phase by phase (with a cache: locals, hits, the rest), in block
        # order; blocks are numbered by position (spans may repeat).
        for phase in zip(*_run_blocks(route, [
                (block, *span) for block, span in enumerate(spans)])):
            _merge_counts(result, phase)
        for income, expenditure in filter(None, (ledger.sums for ledger in ledgers)):
            result.income += income
            result.expenditure += expenditure
        return dead

    def _route_block(self, cur: np.ndarray, row: np.ndarray,
                     tg: np.ndarray, ids: np.ndarray | None, *,
                     book,
                     unpaid_origins: np.ndarray | None, recorder,
                     dead_lut: np.ndarray | None,
                     fallback_storers: np.ndarray | None,
                     flat_table: np.ndarray,
                     first_hop_serves: bool = False) -> _BlockCounts:
        """Route one block's target-sorted columns in hop waves.

        Books its wave-1 hops through ``book(servers, origins, prices)``
        (into its slab's :class:`_SlabLedger`) and returns its
        counters; it touches nothing else shared, so blocks run
        concurrently.

        * All wave state lives in the table's compact entry dtype and
          ping-pongs between two buffer sets, seeded by taking
          ownership of the block's *cur*/*row* columns (no copy-in);
          each wave is one vector add, one ``np.take`` into a reused
          buffer, and one banded bincount that fuses the forwarded
          counts, the arrival count, and the fallback counter. Local
          hits (the origin already stores the chunk) are detected
          *in-band* at wave 1: the origin is the storer iff the coded
          wave-1 value is exactly ``2n + origin`` (storers always
          greedy-stall onto themselves), and such chunks are shunted
          into a transient fourth band (``3n..4n``) so the same
          bincount also counts them — that is why
          :func:`table_entry_dtype` reserves headroom up to ``4n``.
        * ``dead_lut``/``fallback_storers``/``flat_table`` (patched-
          static dynamics): the same loop over the epoch-patched coded
          matrix behind *flat_table*, plus one gather per wave into
          the 3n-entry boolean *dead_lut*; the sparse set of gathers
          that landed on a coded value pointing at a dead node is
          rewritten to ``2n + fallback_storers[target]`` (greedy stall
          to the live storer). An origin that *is* the epoch's storer
          maps onto its own fallback entry, so the wave-1 local check
          still holds.
        * ``first_hop_serves`` (cache hits): wave 1 is counted in
          full, then every chunk terminates — the cached copy on the
          originator's first hop served it.
        * ``recorder`` (the time backend's path recorder): the *ids*
          column (owned by the kernel, like *cur*/*row*) is compacted
          with the survivors through the same ping-pong buffers, and
          each wave reports ``recorder.record_wave(hop, ids,
          servers)`` with its decoded servers, local hits
          ``recorder.record_zero_hop(ids)``. The arrays may be views
          into the reused buffers: a recorder must copy what it keeps.
          Blocks report from their own threads, so a recorder must
          not depend on the order of its calls.
        """
        table = self.table
        dtype = table.entry_dtype
        n = table.n_nodes
        counts = _BlockCounts()
        n_start = int(cur.size)
        # The wave columns: in-flight node and table row offset, plus
        # the chunk ids when a recorder observes the waves.
        src = (cur, row) if recorder is None else (cur, row, ids)
        dst = tuple(np.empty(n_start, column.dtype) for column in src)
        nxt_buf = np.empty(n_start, dtype)
        keep_buf = np.empty(n_start, bool)
        dead_buf = (np.empty(n_start, bool) if dead_lut is not None
                    else None)
        # Every wave's four bands, summed: forwarded counts and the
        # fallback counter are read off it once, after the last wave.
        band_total = None
        size = n_start
        hop = 0
        while size:
            hop += 1
            cur_w = src[0][:size]
            row_w = src[1][:size]
            # The gather indices live in the row column's spare buffer:
            # they are spent before this wave's survivors land there.
            flat = dst[1][:size]
            np.add(row_w, cur_w, out=flat)
            nxt = nxt_buf[:size]
            # mode="clip" skips the bounds check; row + cur is in
            # range by construction (row <= (space-1)*n, cur < n).
            np.take(flat_table, flat, out=nxt, mode="clip")
            # The indices are spent: gather and count through an intp
            # copy (np.take widens other index dtypes into new arrays).
            np.copyto(flat, nxt)
            if dead_lut is not None:
                # Patched-static dynamics: coded values pointing at
                # dead nodes (forward, arrive, or stale stall entries
                # alike — the LUT tiles ~alive over all three bands)
                # greedy-stall to the epoch's live storer, sparsely.
                dead = dead_buf[:size]
                np.take(dead_lut, flat, out=dead, mode="clip")
                dead_idx = np.flatnonzero(dead)
                if dead_idx.size:
                    nxt[dead_idx] = flat[dead_idx] = dtype.type(2 * n) + (
                        fallback_storers[row_w[dead_idx] // n]
                    )
            local_count = 0
            local_mask = None
            if hop == 1:
                local_mask = nxt == cur_w + dtype.type(2 * n)
                local_count = int(np.count_nonzero(local_mask))
                if local_count:
                    nxt[local_mask] += dtype.type(n)
                    flat[local_mask] += n
                    counts.local_hits = local_count
                    counts.hops[0] = local_count
                else:
                    local_mask = None
            bands = np.bincount(flat, minlength=4 * n)
            if band_total is None:
                counts.first_hop = (bands[:n] + bands[n:2 * n]
                                    + bands[2 * n:3 * n])
                band_total = bands
            else:
                band_total += bands
            counts.total_hops += size - local_count
            if hop == 1 or recorder is not None:
                servers = np.take(self._servers_of, flat, mode="clip")
                if recorder is not None:
                    ids_w = src[2][:size]
                    if local_mask is None:
                        recorder.record_wave(hop, ids_w, servers)
                    else:
                        recorder.record_zero_hop(ids_w[local_mask])
                        live = ~local_mask
                        recorder.record_wave(hop, ids_w[live],
                                             servers[live])
            if hop == 1:
                # The bincount input is spent too: the servers, widened
                # to intp there, let the weighted bincounts skip an
                # internal conversion copy.
                np.copyto(flat, servers)
                prices = self._first_hop_prices(flat, tg, cur_w,
                                                unpaid_origins,
                                                suppressed=local_mask)
                book(flat, cur_w, prices)
                # Held through the later waves, a slab-sized array makes
                # the allocator fault in fresh pages for their buffers.
                del prices
                if first_hop_serves:
                    served = size - local_count
                    counts.cache_hits = served
                    counts.hops[1] = served
                    break
            keep = keep_buf[:size]
            np.less(nxt, dtype.type(n), out=keep)
            survivors = int(np.count_nonzero(keep))
            arrived = size - survivors - local_count
            if arrived:
                counts.hops[hop] = arrived
            if survivors:
                index = np.flatnonzero(keep)
                np.take(nxt, index, out=dst[0][:survivors])
                for column, spare in zip(src[1:], dst[1:]):
                    np.take(column[:size], index, out=spare[:survivors])
            src, dst = dst, src
            size = survivors
        if band_total is not None:
            counts.forwarded = (band_total[:n] + band_total[n:2 * n]
                                + band_total[2 * n:3 * n])
            # Neighborhood hand-offs jump straight to the storer (see
            # Router); counted so the effect is visible.
            counts.fallbacks = int(band_total[2 * n:3 * n].sum())
        return counts

    def _first_hop_prices(self, servers: np.ndarray, targets: np.ndarray,
                          origins: np.ndarray,
                          unpaid_origins: np.ndarray | None, *,
                          suppressed: np.ndarray | None = None
                          ) -> np.ndarray:
        """Each chunk's first-hop price.

        Element-wise, so a slab priced block by block gets the same
        bits as priced whole. ``suppressed`` marks chunks that must
        not be paid at all (in-band local hits: nothing was served
        over the network).
        """
        if self.config.pricing == "xor":
            # Inlined _prices on int32: addresses fit in 22 bits.
            distances = np.take(self.table.addresses32, servers)
            np.bitwise_xor(distances, targets, out=distances,
                           casting="unsafe")
            np.maximum(distances, 1, out=distances)
            prices = distances.astype(np.float64)
            prices *= self.config.pricing_base / self.space.size
        else:
            prices = self._prices(
                self.table.addresses[servers].astype(np.uint64),
                targets.astype(np.uint64),
            )
        if unpaid_origins is not None:
            prices[unpaid_origins[origins]] = 0.0
        if suppressed is not None:
            prices[suppressed] = 0.0
        return prices


# ----------------------------------------------------------------------
# The streaming micro-epoch session


class StreamSession:
    """Persistent micro-epoch execution state for one simulation.

    A session owns everything the scenario path used to rebuild per
    run — the :class:`~repro.scenarios.plan.EpochPlan` (alive masks,
    delta-patched storer tables, cache state, coded patches) and the
    shared working coded matrix — and keeps them alive *across*
    micro-batches: :meth:`feed` routes one flattened batch of chunk
    columns as the next epoch. It is the one epoch loop, with two
    drivers: the one-shot run feeds one ``batch_files`` slab per
    epoch (:meth:`FastSimulation._route_slabs`), and
    ``repro-swarm serve`` feeds one decoded request micro-batch per
    epoch (:func:`repro.serve.run_serve`). Serving in slab-sized
    batches is therefore bit-identical to the batch run
    (``tests/integration/test_serve.py`` pins every counter on each
    golden configuration), and session state is O(n_nodes) + the
    coded patches, however many batches flow through, so the daemon
    runs indefinitely in bounded memory.

    A *recorder* (the time backend's path recorder) observes every
    wave the session routes; :meth:`feed` then takes the per-chunk
    ``ids`` it records paths under (see
    :meth:`FastSimulation._route_block`).

    Always :meth:`close` the session (or use it as a context manager)
    — the working coded matrix is shared across runs and must be
    restored to its pristine state.
    """

    def __init__(self, simulation: "FastSimulation", *,
                 result: SimulationResult | None = None,
                 n_epochs: int | None = None,
                 recorder=None) -> None:
        self.simulation = simulation
        config = simulation.config
        self.result = (simulation.new_result() if result is None
                       else result)
        self.n_epochs = None if n_epochs is None else int(n_epochs)
        self._recorder = recorder
        self._entry_dt = simulation.table.entry_dtype
        self._epoch = 0
        self._closed = False
        self.plan = None
        self._flat_working = None
        scenario = config.scenario_stack()
        if scenario is not None:
            if self.n_epochs is None:
                raise ConfigurationError(
                    "streaming a scenario run needs the epoch count up "
                    "front (schedules are sized per epoch); pass "
                    "n_epochs — for a bounded workload that is "
                    "ceil(n_files / batch_files)"
                )
            from ..perf.table_cache import global_table_cache
            from ..scenarios.base import ScenarioContext
            from ..scenarios.plan import EpochPlan

            coded_working = global_table_cache().writable_coded(
                simulation.table
            )
            self._flat_working = coded_working.reshape(-1)
            self.plan = EpochPlan(
                scenario,
                ScenarioContext(
                    n_nodes=simulation.table.n_nodes,
                    n_epochs=self.n_epochs,
                    space_size=simulation.space.size,
                    overlay_seed=config.overlay_seed,
                ),
                table_fingerprint=simulation.overlay.fingerprint(),
                base_storers=simulation.table.storer,
                addresses=simulation.overlay.address_array(),
                coded=coded_working,
            )

    @property
    def epochs_fed(self) -> int:
        """How many micro-epochs have been routed so far."""
        return self._epoch

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def feed(self, origins: np.ndarray, targets: np.ndarray, *,
             into: SimulationResult | None = None,
             ids: np.ndarray | None = None) -> SimulationResult:
        """Route one micro-epoch of flattened origin/target columns.

        *origins* are dense node indices (one per chunk), *targets*
        the chunk addresses — the same columns the flatten path
        produces. Counters accumulate into the session's cumulative
        result, or into *into* when given. The serve daemon routes
        each micro-epoch into a fresh scratch result and only then
        adds it into its running result: a signal can interrupt this
        call midway, and the scratch keeps the running result at whole
        micro-epochs. *ids* is the per-chunk id column a recorder
        session reports paths under.
        """
        if self._closed:
            raise ConfigurationError(
                "this stream session is closed; open a new one"
            )
        if self.plan is not None and self._epoch >= self.n_epochs:
            raise ConfigurationError(
                f"this stream session was sized for {self.n_epochs} "
                f"epoch(s) and they are all consumed; size n_epochs "
                f"to the stream's full length"
            )
        result = self.result if into is None else into
        result.chunks += int(origins.size)
        if self.plan is None:
            self.simulation._route_batch(
                origins, targets, result, ids=ids,
                recorder=self._recorder,
            )
        else:
            self._route_epoch(self.plan.epoch(self._epoch), origins,
                              targets, ids, result)
        self._epoch += 1
        return result

    def _route_epoch(self, state, origins: np.ndarray,
                     targets: np.ndarray, ids: np.ndarray | None,
                     result: SimulationResult) -> None:
        """Route one scenario epoch's slab under its plan state."""
        simulation = self.simulation
        if state.origin_map is not None:
            origins = state.origin_map[origins].astype(self._entry_dt)
        alive = state.alive
        storer_table = None
        if alive is not None:
            if not alive.any():
                result.unavailable += int(origins.size)
                return
            storer_table = (state.storers if state.storers is not None
                            else simulation.table.storer)
        cache = state.cache
        # The plan keeps the working matrix patched to this epoch's
        # storers (pristine until the first topology event), so the
        # banded kernel runs as-is plus the dead-value LUT; the blocks
        # drop the chunks whose origin or storer is offline.
        dead = simulation._route_batch(
            origins, targets, result, ids=ids, recorder=self._recorder,
            cached=None if cache is None else cache.mask,
            unpaid_origins=state.unpaid,
            alive=alive,
            dead_lut=state.dead_lut,
            storer_table=storer_table,
            flat_coded=self._flat_working,
        )
        if cache is not None:
            # Every chunk retrieved this epoch is now cached on its
            # delivery path (mask model of path caching), in slab order.
            cache.insert(targets if dead is None else targets[~dead])

    def close(self) -> None:
        """Restore the shared coded matrix; the session is done."""
        if self._closed:
            return
        self._closed = True
        if self.plan is not None:
            # The working matrix is shared across runs (and, for
            # built tables, IS the table) — always leave it pristine.
            self.plan.restore_coded()


# ----------------------------------------------------------------------
# Backend protocol adapters


class SimulationBoundBackend(SimulationBackend):
    """Shared prepare(): bind a :class:`FastSimulation` to the config."""

    uses_next_hop_table = True

    simulation: FastSimulation | None = None

    def prepare(self, config: FastSimulationConfig) -> "SimulationBoundBackend":
        self.config = config
        self.simulation = FastSimulation(config)
        self.overlay = self.simulation.overlay
        return self


@register_backend
class FastBackend(SimulationBoundBackend):
    """Batched numpy engine — the production default."""

    name = "fast"
    description = "batched numpy engine: whole-workload lockstep hop waves"

    def run(self, workload=None) -> SimulationResult:
        self._require_prepared()
        return self.simulation.run(workload)
