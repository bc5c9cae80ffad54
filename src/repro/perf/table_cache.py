"""Content-addressed, process-global next-hop-table cache.

Every consumer of a :class:`~repro.backends.fast.NextHopTable` —
:class:`~repro.backends.fast.FastSimulation`, the baselines wrapping
it, and the sweep workers — resolves tables through one
:class:`TableCache` keyed by
:meth:`Overlay.fingerprint() <repro.kademlia.overlay.Overlay.fingerprint>`.
The cache has three sources, tried in order:

1. **memo** — a table already resolved in this process (hit);
2. **shared memory** — a :class:`~repro.perf.shared.SharedTableHandle`
   registered by the sweep executor: the table is attached read-only
   from the publishing process instead of being rebuilt (attach);
3. **build** — a cold :class:`~repro.backends.fast.NextHopTable`
   construction (build).

:attr:`TableCache.stats` counts each source, which is how the
instrumented sweep tests assert "exactly one build per topology"
without depending on machine speed. Built tables are kept for the
life of the process: the ~131 MB paper-scale table costs far more to
rebuild than to hold, and a process that builds (a sweep's parent,
the serial executor, ``run``, ``serve``) touches a handful of
topologies. Attached tables are held **one at a time**: attaching a
topology drops the previous attachment (its segments are unmapped
once no simulation routes on it) and the writable working copy made
from it. So a sweep worker holds the one table it routes, not one per
topology it has touched; it leases points grid-major, so it still
attaches each topology about once per run.

The epoch-driven scenario layer adds a second, lighter cache:
:class:`EpochTableCache` memoizes the per-epoch *storer* tables that
topology dynamics (churn with re-replication, join storms) would
otherwise recompute every epoch of every run. Keys are the chained
fingerprints of :func:`~repro.kademlia.table.chain_fingerprint`
(``parent_fp + delta``), so any two runs replaying the same scenario
schedule over the same overlay — sweep seed replicas above all —
resolve each epoch's table once per process; misses are satisfied by
a delta *patch* of the parent epoch's table rather than a full
rebuild whenever the plan still holds a valid parent. Set the
:data:`EPOCH_TABLE_LOG_ENV` environment variable to a file path to
record one ``"<fingerprint> <pid> <patch|rebuild|hit>"`` line per
resolution — the instrumented scenario-sweep tests use it to prove
the delta cache beats rebuild-per-epoch without timing anything.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..backends.fast import NextHopTable
    from ..kademlia.overlay import Overlay
    from .shared import SharedTableHandle

__all__ = [
    "CacheStats",
    "TableCache",
    "global_table_cache",
    "EpochCacheStats",
    "EpochTableCache",
    "global_epoch_table_cache",
    "log_epoch_event",
    "EPOCH_TABLE_LOG_ENV",
]

#: When set, every epoch-table resolution appends one
#: ``"<fingerprint> <pid> <event>"`` line to the named file.
EPOCH_TABLE_LOG_ENV = "REPRO_EPOCH_TABLE_LOG"


@dataclass
class CacheStats:
    """How many tables this cache built, attached, and re-served."""

    builds: int = 0
    attaches: int = 0
    hits: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-data copy (for logs and assertions)."""
        return {
            "builds": self.builds,
            "attaches": self.attaches,
            "hits": self.hits,
        }


class TableCache:
    """Memoizes :class:`NextHopTable` instances by overlay fingerprint.

    Not thread-safe, and it need not be: each process owns its cache,
    and only the thread that runs a simulation calls it. The threads
    of :mod:`repro.backends.fast`'s block pool (routing blocks of a
    slab, lanes of a table build) work inside one such call on arrays
    they are handed, and never reach the cache.
    """

    def __init__(self) -> None:
        self._tables: dict[str, "NextHopTable"] = {}
        self._handles: dict[str, "SharedTableHandle"] = {}
        self._working: dict[str, np.ndarray] = {}
        #: Fingerprint of the one memoized attachment, if any.
        self._attached: str | None = None
        self.stats = CacheStats()

    def get(self, overlay: "Overlay") -> "NextHopTable":
        """The table for *overlay*: memoized, attached, or built.

        Attaching first drops the previous attachment and its working
        copy, so the two are never held at once.
        """
        fingerprint = overlay.fingerprint()
        table = self._tables.get(fingerprint)
        if table is not None:
            self.stats.hits += 1
            return table
        handle = self._handles.get(fingerprint)
        if handle is not None:
            from .shared import attach_table

            self._tables.pop(self._attached, None)
            self._working.pop(self._attached, None)
            self._attached = None
            table = attach_table(handle, overlay)
            self._attached = fingerprint
            self.stats.attaches += 1
        else:
            from ..backends.fast import NextHopTable

            table = NextHopTable(overlay)
            self.stats.builds += 1
        self._tables[fingerprint] = table
        return table

    def register_handle(self, handle: "SharedTableHandle") -> None:
        """Offer a shared-memory table for future :meth:`get` calls.

        Registration is lazy and idempotent: nothing is attached until
        a simulation actually asks for that topology, and re-offering
        the same fingerprint simply replaces the handle.
        """
        self._handles[handle.fingerprint] = handle

    def is_registered(self, handle: "SharedTableHandle") -> bool:
        """Whether exactly *handle* is already registered."""
        return self._handles.get(handle.fingerprint) == handle

    def install(self, fingerprint: str, table: "NextHopTable") -> None:
        """Memoize an externally built table under *fingerprint*.

        Kept as the test seam that plants a table (a read-only one,
        say); the package itself only memoizes what it builds.
        """
        self._tables[fingerprint] = table

    def writable_coded(self, table: "NextHopTable") -> np.ndarray:
        """A writable coded matrix for in-place epoch patching.

        Built tables own their coded matrix, so epoch plans patch (and
        revert) it directly — zero copies. Shared-memory attachments
        are read-only by design; for those, one writable copy is made
        here and reused by every later run on that attachment (each
        run reverts its patches on exit, so the copy is pristine again
        whenever it is handed out). The copy is dropped with its
        attachment when another topology attaches.
        """
        coded = table.coded_transposed
        if coded.flags.writeable:
            return coded
        fingerprint = table.overlay.fingerprint()
        working = self._working.get(fingerprint)
        if working is None:
            working = np.array(coded)
            self._working[fingerprint] = working
        return working

    def clear(self) -> None:
        """Drop every table, handle, working copy, and counter."""
        self._tables.clear()
        self._handles.clear()
        self._working.clear()
        self._attached = None
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, fingerprint: object) -> bool:
        return fingerprint in self._tables


@dataclass
class EpochCacheStats:
    """How many epoch tables were patched, rebuilt, and re-served."""

    patches: int = 0
    rebuilds: int = 0
    hits: int = 0

    @property
    def resolutions(self) -> int:
        """Total epoch-table requests served.

        Kept for the tests that check every request was counted once.
        """
        return self.patches + self.rebuilds + self.hits

    def snapshot(self) -> dict[str, int]:
        """Plain-data copy (for logs and assertions)."""
        return {
            "patches": self.patches,
            "rebuilds": self.rebuilds,
            "hits": self.hits,
        }


def log_epoch_event(fingerprint: str, event: str) -> None:
    """Append one epoch-table event line to the instrumentation log.

    Used by the cache itself (``hit``/``patch``/``rebuild``
    resolutions) and by the epoch plans' coded-matrix patching
    (``coded-patch``/``coded-revert``), so the instrumented tests can
    reconstruct exactly which process did which table work.
    """
    path = os.environ.get(EPOCH_TABLE_LOG_ENV)
    if not path:
        return
    # O_APPEND single-line writes don't interleave across the sweep
    # worker processes the instrumented tests fan out over.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{fingerprint} {os.getpid()} {event}\n")


class EpochTableCache:
    """Memoizes per-epoch storer tables by chained fingerprint.

    Values are the compact per-address storer arrays the epoch plans
    resolve (a few hundred KB at paper scale) and, under a
    ``"coded:"``-prefixed key, the sparse
    :class:`~repro.kademlia.table.CodedPatch` objects that re-home the
    coded routing matrix's arrive band for storer-recomputing epochs
    (anything exposing ``nbytes`` participates in the bytes budget). Unlike the dense
    :class:`TableCache`, every churn epoch has a distinct alive set —
    a long run inserts one table per epoch forever — so this cache is
    **LRU-bounded** by a *bytes* budget (:data:`DEFAULT_MAX_BYTES`),
    measured against each table's actual ``nbytes``, so the
    resident-memory ceiling is the same whether the address space is
    12 bits (tiny tables, thousands cached) or 22 bits (8 MB tables, a
    handful cached) — bounding a table *count* instead would scale
    memory 64x across that range. Eviction is always safe: a live
    :class:`~repro.scenarios.plan.EpochPlan` patches from its own
    chain-tip reference, never from the cache, so dropping an old
    epoch only costs a replayed schedule a recompute.

    Epoch artifacts are only ever derived in the process that routes
    them: every sweep worker (and the serial executor) fills its own
    cache from its first replica of a schedule and serves later
    replicas as hits, and nothing crosses a process boundary.
    Process-global and not thread-safe, like :class:`TableCache`.
    """

    #: Default bytes budget: 256 tables at the paper's 16-bit space
    #: (131 KB per uint16 table, ~34 MB resident).
    DEFAULT_MAX_BYTES = 256 * (1 << 16) * 2

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self._tables: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.max_bytes = max_bytes
        self._bytes = 0
        self.stats = EpochCacheStats()

    @property
    def nbytes(self) -> int:
        """Bytes currently held by cached epoch tables."""
        return self._bytes

    def get(self, fingerprint: str,
            build: Callable[[], np.ndarray], *,
            patched: bool = True) -> np.ndarray:
        """The table for *fingerprint*, building via *build* on a miss.

        ``patched`` records how a miss was satisfied — a delta patch
        of the parent epoch's table or a from-scratch rebuild — so the
        benchmark and the instrumented tests can tell the two apart.
        """
        table = self._tables.get(fingerprint)
        if table is not None:
            self.stats.hits += 1
            self._tables.move_to_end(fingerprint)
            log_epoch_event(fingerprint, "hit")
            return table
        table = build()
        if patched:
            self.stats.patches += 1
            log_epoch_event(fingerprint, "patch")
        else:
            self.stats.rebuilds += 1
            log_epoch_event(fingerprint, "rebuild")
        self._tables[fingerprint] = table
        self._bytes += int(table.nbytes)
        # Drop LRU entries until within budget, keeping the newest.
        while len(self._tables) > 1 and self._bytes > self.max_bytes:
            _, evicted = self._tables.popitem(last=False)
            self._bytes -= int(evicted.nbytes)
        return table

    def clear(self) -> None:
        """Drop every epoch table and counter (for tests)."""
        self._tables.clear()
        self._bytes = 0
        self.stats = EpochCacheStats()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, fingerprint: object) -> bool:
        return fingerprint in self._tables


_GLOBAL_CACHE: TableCache | None = None
_GLOBAL_EPOCH_CACHE: EpochTableCache | None = None


def global_table_cache() -> TableCache:
    """The process-wide cache behind ``cached_next_hop_table``."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = TableCache()
    return _GLOBAL_CACHE


def global_epoch_table_cache() -> EpochTableCache:
    """The process-wide cache epoch plans resolve storer tables through."""
    global _GLOBAL_EPOCH_CACHE
    if _GLOBAL_EPOCH_CACHE is None:
        _GLOBAL_EPOCH_CACHE = EpochTableCache()
    return _GLOBAL_EPOCH_CACHE
