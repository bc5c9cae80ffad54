"""Performance subsystem: table caching, sharing, and benchmarking.

PR 2 measured ``sweep --jobs 4`` running *slower* than serial because
every worker process rebuilt the dense
:class:`~repro.backends.fast.NextHopTable` (about 5 s and 131 MB at
paper scale) for every sweep point. This package removes that
redundancy and tracks the repository's performance trajectory:

* :mod:`~repro.perf.table_cache` — a process-global, content-addressed
  :class:`TableCache` keyed by
  :meth:`~repro.kademlia.overlay.Overlay.fingerprint`; every consumer
  of :func:`repro.backends.fast.cached_next_hop_table` goes through
  it, so one topology is built at most once per process;
* :mod:`~repro.perf.shared` — publishes built tables into
  :mod:`multiprocessing.shared_memory` (refcounted, unlinked when the
  last sweep releases them) and attaches them read-only in worker
  processes, so a K-seed x M-parameter sweep over one topology builds
  its table exactly once machine-wide;
* :mod:`~repro.perf.bench` — the ``repro-swarm bench`` gate, which
  holds saved ``perfbench/run.py`` logs against the committed
  ``BENCH_perfbench.json`` record (the CI perf smoke gate), and the
  time-domain :data:`LATENCY_PROFILE`.

The epoch-driven scenario layer adds :class:`EpochTableCache` beside
the dense-table cache: per-epoch storer tables under topology change
are content-addressed by chained delta fingerprints and satisfied by
incremental patches of the parent epoch's table (see
:mod:`repro.kademlia.table` and :mod:`repro.scenarios.plan`), so
replayed scenario schedules — sweep seed replicas in particular —
never recompute an epoch's table twice in one process.

The public names load on first use: importing this package imports
none of its submodules, so a process that only needs the table cache
never loads the benchmark gate.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bench": ["LATENCY_PROFILE"],
    "shared": ["SharedArraySpec", "SharedTableHandle", "SharedTableRegistry",
               "attach_table", "shared_table_registry"],
    "table_cache": ["EPOCH_TABLE_LOG_ENV", "CacheStats", "EpochCacheStats",
                    "EpochTableCache", "TableCache",
                    "global_epoch_table_cache", "global_table_cache"],
})
