"""Spawn-safe point execution shared by every executor.

:func:`execute_point` is a module-level function taking only
plain-data payloads, so :class:`concurrent.futures.ProcessPoolExecutor`
can ship it to freshly spawned interpreters (no fork-inherited state,
importable by qualified name on any platform). The serial executor
calls the very same function, which is what makes parallel sweeps
byte-identical to serial ones: every point runs the same arithmetic on
the same derived seed regardless of process layout.

Each worker process keeps the :mod:`repro.backends.fast` overlay
cache and the :mod:`repro.perf.table_cache` of its own interpreter.
:func:`execute_point` accepts the shared-memory table handles
published by :class:`~repro.sweeps.executors.ProcessExecutor` and
registers them *before* running: each handle's overlay is decoded
from its segment once per worker and installed in the overlay cache,
and the dense next-hop table is attached from the parent's segments
when a point needs it. A worker given handles therefore builds neither
overlays nor tables — the cross-process half of the "build each
topology exactly once" guarantee. It holds one attached table at a
time: attaching the next topology drops the previous one (and the
writable copy a scenario point patches), so a worker's resident set
stays one table however many topologies the sweep spans. Without
handles (the serial executor, or a platform without shared memory) a
worker builds each overlay and table it touches once and keeps them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..backends import get_backend
from ..backends.config import FastSimulationConfig
from ..backends.result import SimulationResult
from .spec import SweepPoint

__all__ = [
    "PointOutcome",
    "point_payload",
    "point_from_payload",
    "config_from_payload",
    "register_table_handles",
    "result_metrics",
    "execute_point",
    "set_up_worker",
    "warm_up",
    "METRIC_NAMES",
    "LATENCY_METRIC_NAMES",
]

#: Scalar metrics recorded per point, in stable store order. Points
#: run on the ``time`` backend append :data:`LATENCY_METRIC_NAMES`.
METRIC_NAMES = (
    "files",
    "chunks",
    "total_hops",
    "mean_hops",
    "fallbacks",
    "local_hits",
    "cache_hits",
    "unavailable",
    "availability",
    "mean_forwarded",
    "f2_gini",
    "f1_gini",
    "total_income",
    "net_mean",
    "net_std",
    "net_min",
    "net_max",
)

#: Extra metrics present only when the result carries latency samples
#: (the time-domain backend). Conditional: replicas of one (backend,
#: cell) either all have them or none do, which is what aggregation
#: keys on.
LATENCY_METRIC_NAMES = (
    "latency_mean_ms",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "latency_max_ms",
)


@dataclass
class PointOutcome:
    """Everything one executed sweep point produced.

    ``metrics`` holds the scalar summary persisted by the JSON store;
    ``vectors`` the exact per-node :class:`SimulationResult` arrays
    (kept in memory for aggregation and determinism checks, never
    persisted). ``elapsed`` stays out of ``metrics`` so stores diff
    cleanly across machines and serial/parallel runs.
    """

    point_id: str
    index: int
    backend: str
    overrides: dict[str, Any]
    replica: int
    workload_seed: int
    metrics: dict[str, Any]
    vectors: dict[str, np.ndarray]
    elapsed: float


def point_payload(point: SweepPoint) -> dict:
    """The plain-data form of a point shipped to worker processes."""
    return {
        "point_id": point.point_id,
        "index": point.index,
        "backend": point.backend,
        "overrides": dict(point.overrides),
        "replica": point.replica,
        "workload_seed": point.workload_seed,
    }


def point_from_payload(payload: Mapping) -> SweepPoint:
    """Inverse of :func:`point_payload` (used by distributed hosts).

    Overrides survive the JSON round-trip in insertion order (both
    Python dicts and JSON objects preserve it), and ``point_id``
    sorts them anyway, so the rebuilt point is identical to the one
    the coordinator leased out.
    """
    return SweepPoint(
        index=int(payload["index"]),
        backend=str(payload["backend"]),
        overrides=tuple(
            (str(name), value)
            for name, value in payload["overrides"].items()
        ),
        replica=int(payload["replica"]),
        workload_seed=int(payload["workload_seed"]),
    )


def config_from_payload(base: Mapping, payload: Mapping
                        ) -> FastSimulationConfig:
    """Rebuild the point's configuration from plain data."""
    merged = dict(base)
    merged.update(payload["overrides"])
    merged["workload_seed"] = payload["workload_seed"]
    return FastSimulationConfig(**merged)


def result_metrics(result: SimulationResult) -> dict[str, Any]:
    """The scalar per-point summary of one simulation result.

    Covers the paper's forwarded-chunk and Gini-fairness quantities
    plus net-balance dispersion (income minus expenditure per node),
    which separates closed-loop SWAP accounting from the one-sided
    baseline mechanisms.
    """
    net = result.income - result.expenditure
    metrics = {
        "files": int(result.files),
        "chunks": int(result.chunks),
        "total_hops": int(result.total_hops),
        "mean_hops": float(result.mean_hops),
        "fallbacks": int(result.fallbacks),
        "local_hits": int(result.local_hits),
        "cache_hits": int(result.cache_hits),
        "unavailable": int(result.unavailable),
        "availability": float(result.availability),
        "mean_forwarded": float(result.average_forwarded_chunks()),
        "f2_gini": float(result.f2_gini()),
        "f1_gini": float(result.f1_gini()),
        "total_income": float(result.income.sum()),
        "net_mean": float(net.mean()),
        "net_std": float(net.std()),
        "net_min": float(net.min()),
        "net_max": float(net.max()),
    }
    if result.latency_ms is not None and result.latency_ms.size:
        stats = result.latency_stats()
        metrics.update({
            "latency_mean_ms": stats.mean_ms,
            "latency_p50_ms": stats.p50_ms,
            "latency_p95_ms": stats.p95_ms,
            "latency_p99_ms": stats.p99_ms,
            "latency_max_ms": stats.max_ms,
        })
    return metrics


def register_table_handles(table_handles: Mapping | None) -> None:
    """Make published shared-memory tables visible to this process.

    *table_handles* maps overlay fingerprints to
    :class:`~repro.perf.shared.SharedTableHandle` payloads. A handle's
    overlay is decoded from its segment the first time the handle is
    seen (:func:`~repro.perf.shared.attach_overlay` checks the
    fingerprint) and installed where
    :func:`~repro.backends.fast.cached_overlay` finds it; its table
    attaches lazily, when a backend first prepares that topology.
    Registration is idempotent, so re-sending the same handles with
    every work item is free. Scenario epoch artifacts never arrive
    here: this process derives them itself (see :func:`execute_point`).
    """
    if not table_handles:
        return
    from ..backends.fast import install_overlay
    from ..perf.shared import SharedTableHandle, attach_overlay
    from ..perf.table_cache import global_table_cache

    cache = global_table_cache()
    for handle_payload in table_handles.values():
        handle = SharedTableHandle.from_payload(handle_payload)
        if cache.is_registered(handle):
            continue
        install_overlay(attach_overlay(handle))
        cache.register_handle(handle)


#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: A pool worker's allocator thresholds. Below 32 MiB (glibc's own
#: ceiling for its dynamic mmap threshold on 64-bit hosts) a block
#: comes from the heap rather than a fresh mapping, and up to 64 MiB
#: of free heap top is kept rather than handed back to the kernel.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _mallopt():
    """The C library's ``mallopt``, or ``None`` where it has none."""
    try:
        import ctypes

        return ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return None


def set_up_worker(workers: int) -> None:
    """Process-pool initializer: fit a worker to its share of the host.

    *workers* is the size of the pool. A worker routes on
    ``max(1, cpus // workers)`` CPUs
    (:func:`~repro.backends.fast.cap_cpu_budget`), so N workers split
    their slabs into about one block per CPU between them instead of
    N times that many threads.

    It also fixes the allocator's thresholds. glibc raises its mmap and
    trim thresholds only when a large block is freed; the parent frees
    the tables it builds, but a worker attaches its tables and never
    frees a large block, so left alone it would map, fault in and
    unmap every point's slab temporaries afresh. Where the C library
    has no ``mallopt`` this part does nothing. Neither part changes a
    result.

    Last, the worker ends itself once its parent is gone
    (:func:`_exit_with_parent`).
    """
    from ..backends import fast

    fast.cap_cpu_budget(max(1, fast._cpu_budget() // workers))
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    _exit_with_parent()


def _exit_with_parent() -> None:
    """End this spawned process as soon as its parent dies.

    A pool worker waits on its call queue, whose pipe it holds both
    ends of, so it never reads EOF there: a killed parent (a SIGKILLed
    ``sweep-work`` host) would leave it running, and with it the
    resource tracker whose descriptor it holds. The parent sentinel
    that :mod:`multiprocessing` gives every spawned child is a pipe
    only the parent writes to; a daemon thread waits for its EOF and
    exits the process.
    """
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None or parent.sentinel is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def warm_up() -> None:
    """Import what a point needs; the executor's first task per worker.

    Unpickling this task imports this module, and so numpy and the
    backend registry; the fast backend, which every table-sharing
    point needs, and the lazily imported helpers of
    :func:`execute_point` are imported here too. Other backends load
    when a point first names them.
    """
    from ..backends import fast  # noqa: F401
    from ..perf import shared, table_cache  # noqa: F401
    from . import chaos  # noqa: F401


def execute_point(base: Mapping, payload: Mapping,
                  table_handles: Mapping | None = None,
                  attempt: int = 0) -> PointOutcome:
    """Run one sweep point and summarize it (the executor work unit).

    A scenario point's per-epoch storer tables and coded-matrix
    patches resolve through this process's
    :class:`~repro.perf.table_cache.EpochTableCache`: the first
    replica of a schedule that this process runs derives them, and
    every later replica here is served from the cache.

    ``attempt`` is the 0-based retry attempt the executor is running;
    it never influences the simulation (results are attempt-invariant
    by construction) and exists only so the :mod:`~repro.sweeps.chaos`
    fault-injection hook below can key faults by
    ``(point_id, attempt)`` — "fail the first try, pass the retry".
    """
    from .chaos import maybe_inject

    maybe_inject(payload["point_id"], attempt)
    register_table_handles(table_handles)
    config = config_from_payload(base, payload)
    backend = get_backend(payload["backend"])
    result = backend.prepare(config).run()
    return PointOutcome(
        point_id=payload["point_id"],
        index=payload["index"],
        backend=payload["backend"],
        overrides=dict(payload["overrides"]),
        replica=payload["replica"],
        workload_seed=payload["workload_seed"],
        metrics=result_metrics(result),
        vectors={
            "forwarded": result.forwarded.copy(),
            "first_hop": result.first_hop.copy(),
            "income": result.income.copy(),
            "expenditure": result.expenditure.copy(),
        },
        elapsed=float(result.elapsed_seconds),
    )
