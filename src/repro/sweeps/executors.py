"""Sweep executors: serial for determinism, process pool for speed.

Both executors run :func:`repro.sweeps.worker.execute_point` over the
same plain-data payloads and return outcomes re-sorted into the
spec's canonical point order, so::

    SerialExecutor().run(base, points)
    == ProcessExecutor(jobs=4).run(base, points)

holds exactly (identical floats, identical per-node vectors) — the
invariant ``tests/sweeps/test_determinism.py`` pins for every backend
in the registry. :class:`ProcessExecutor` always uses the ``spawn``
start method: workers import :mod:`repro` fresh instead of inheriting
forked state, which keeps results independent of whatever the parent
process cached and behaves identically on Linux, macOS, and Windows.

Every executor leases its points from one scheduler, a
:class:`~repro.sweeps.resilience.QueueState`: the serial executor one
point at a time, the process pool one per idle worker (its recovery
paths are listed on :class:`ProcessExecutor`), and the distributed
executor serves the same object to worker hosts. A point that
exhausts its retry budget is therefore quarantined, not fatal, with
the same record however the sweep ran, and a point that fails and
then succeeds within the budget leaves no trace in its outcome —
recovered sweeps stay byte-identical to fault-free ones, the property
:mod:`repro.sweeps.chaos` fault plans pin in CI.

Spawned workers share built routing tables instead of rebuilding
them: the parent resolves each unique topology's
:class:`~repro.backends.fast.NextHopTable` once through the global
:class:`~repro.perf.table_cache.TableCache`, publishes it to shared
memory via the :class:`~repro.perf.shared.SharedTableRegistry`
(written through each segment's descriptor, so the parent faults in
none of it; refcounted; unlinked when the run ends), and ships the
handles with every work item — the fix for PR 2's finding that
``--jobs 4`` lost to serial because each worker rebuilt every table.
The overlay rides with its table (as JSON bytes in one more segment),
so a worker decodes each topology once instead of rebuilding it. A
worker maps one table at a time: attaching the next topology unmaps
the previous one, and points are leased grid-major (every replica of
one topology, then the next), so a worker attaches each topology
about once while its resident set stays one table deep.
Where shared memory is unavailable the parent warns and each worker
rebuilds the tables and overlays it touches. A scenario point's
per-epoch storer tables and coded-matrix patches are not published:
each worker derives them through its own
:class:`~repro.perf.table_cache.EpochTableCache` on its first replica
of a schedule and serves its later replicas from that cache, exactly
as the serial executor does in-process.

A :class:`ProcessExecutor` run keeps its workers busy from the
start: it launches the pool *before* publishing, so the workers spawn
and import while the parent copies tables into shared memory, and
after each completed point it submits the next one *before* handing
the outcome to ``on_result`` (the store save), so no worker idles
through a save.

A point splits its large slabs into routing blocks, one per CPU its
process may use (:meth:`~repro.backends.fast.FastSimulation.
_route_batch`). The serial executor's process may use every CPU. A
pool worker uses its share, ``max(1, cpus // workers)``, set once by
the pool's initializer (:func:`~repro.sweeps.worker.set_up_worker`),
so N workers no longer run N times as many block threads as there
are CPUs. The initializer also fixes the worker's allocator
thresholds: a worker attaches its tables and never frees a large
block, so glibc never raises its dynamic mmap threshold there, and
left alone it maps, faults in and unmaps every point's slab
temporaries afresh (~4k minor page faults a point on the sweep
benchmark, none in the parent). Stores are byte-identical whatever
the block count.

Requesting more workers than the machine has CPUs is allowed but
warned about (PR 2 also measured oversubscribed sweeps running
*slower* than serial: the points are CPU-bound, so extra workers only
add contention); ``cap_jobs=True`` clamps to ``os.cpu_count()``
instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..backends.base import get_backend_class
from ..backends.config import FastSimulationConfig
from ..errors import ConfigurationError, SweepExecutionError
from ..kademlia.overlay import OverlayConfig
from .resilience import PointFailure, QueueState, RetryPolicy
from .spec import SweepPoint, SweepSpec
from .worker import PointOutcome, execute_point, set_up_worker, warm_up

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .distributed import DistributedExecutor  # noqa: F401

__all__ = ["SweepExecutor", "SerialExecutor", "ProcessExecutor",
           "WorkerCrash", "PointTimeout",
           "make_executor", "resolve_jobs", "table_topologies"]

#: Callback invoked as each point completes (store persistence hook).
OnResult = Callable[[PointOutcome], None]

#: Callback invoked when a point exhausts its retry budget and is
#: quarantined (store failure-section hook).
OnFailure = Callable[[PointFailure], None]

#: The lease holder name of an in-process executor.
_LOCAL = "local"


class WorkerCrash(RuntimeError):
    """A worker process died while the point was in flight.

    The pool cannot attribute the death to one future, so every lost
    in-flight point is charged one attempt with this error; the fixed
    message keeps quarantine records deterministic.
    """


class PointTimeout(RuntimeError):
    """A point exceeded the wall-clock ``point_timeout`` watchdog."""


def resolve_jobs(jobs: int, *, cap_jobs: bool = False) -> int:
    """Validate a worker count against the machine's CPUs.

    Warns when *jobs* exceeds ``os.cpu_count()`` — PR 2's sweep
    measurements showed oversubscription *inverting* the parallel
    speedup (4 workers on 1 core: 169 s vs 82 s serial) — and clamps
    to the CPU count when ``cap_jobs`` is set.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    available = os.cpu_count() or 1
    if jobs > available:
        if cap_jobs:
            warnings.warn(
                f"--jobs {jobs} exceeds the {available} available CPU(s); "
                f"capping to {available}. Sweep points are CPU-bound, so "
                f"oversubscription only adds contention (PR 2 measured it "
                f"running slower than serial).",
                RuntimeWarning,
                stacklevel=3,
            )
            return available
        warnings.warn(
            f"--jobs {jobs} exceeds the {available} available CPU(s); "
            f"expect the parallel sweep to run no faster (and possibly "
            f"slower) than --jobs {available}. Pass cap_jobs/--cap-jobs "
            f"to clamp automatically.",
            RuntimeWarning,
            stacklevel=3,
        )
    return jobs


def table_topologies(base: FastSimulationConfig,
                     points: Sequence[SweepPoint]) -> list[OverlayConfig]:
    """Unique overlay configs whose points need a next-hop table.

    Only backends that declare ``uses_next_hop_table`` count — the
    reference network and the standalone tit-for-tat swarm never build
    one, so publishing tables for them would be pure overhead.
    """
    from ..backends.fast import overlay_key

    unique: dict[tuple, OverlayConfig] = {}
    for point in points:
        if not get_backend_class(point.backend).uses_next_hop_table:
            continue
        config = point.config(base).overlay_config()
        unique.setdefault(overlay_key(config), config)
    return list(unique.values())


class SweepExecutor:
    """Runs sweep points; subclasses choose the execution strategy.

    :meth:`run` leases the points from a fresh
    :class:`~repro.sweeps.resilience.QueueState` through ``_drive``.
    """

    #: The sweep spec the scheduler serves to worker hosts.
    spec: SweepSpec | None = None
    #: Seconds a lease may run before it is expired and charged.
    lease_timeout: float = math.inf

    def run(self, base: FastSimulationConfig,
            points: Sequence[SweepPoint],
            on_result: OnResult | None = None,
            on_failure: OnFailure | None = None,
            attempts: Mapping[str, int] | None = None
            ) -> list[PointOutcome]:
        """Execute *points* against *base*; canonical-order outcomes.

        Successful outcomes are returned (and streamed to
        *on_result*); points that exhaust the retry budget are
        reported to *on_failure* and omitted from the return value —
        unless ``keep_going=False``, where the first exhausted point
        raises :class:`~repro.errors.SweepExecutionError`.

        *attempts* seeds prior failed-attempt counts per ``point_id``
        (default: none). The distributed work queue uses it to make a
        host's local run count attempts from the global number its
        lease carries, so quarantine records stay identical to a
        single-machine run's.
        """
        outcomes: list[PointOutcome] = []
        if not points:
            return outcomes
        state = QueueState(self.spec, points,
                           retry_policy=self.retry_policy,
                           lease_timeout=self.lease_timeout,
                           attempts=attempts)

        def result(outcome: PointOutcome) -> None:
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)

        def failure(failure: PointFailure) -> None:
            if on_failure is not None:
                on_failure(failure)
            if not self.keep_going:
                raise SweepExecutionError(
                    f"sweep aborted (fail-fast): {failure.describe()}"
                )

        settle = functools.partial(state.settle, result, failure)
        try:
            self._drive(base, points, state, settle)
        except BaseException:
            # What settled before the abort still reaches the store.
            state.settle(result, on_failure)
            raise
        settle()
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    def _drive(self, base: FastSimulationConfig,
               points: Sequence[SweepPoint], state: QueueState,
               settle: Callable[..., bool]) -> None:
        """Lease and execute *state*'s points until all have settled.

        ``settle(timeout=0.0)`` hands what settled so far to the
        callbacks; call it whenever the run can spare the time.
        """
        raise NotImplementedError


class SerialExecutor(SweepExecutor):
    """In-process, one point at a time — the determinism reference.

    The process-global table cache already deduplicates builds within
    one process, so the serial path needs no shared memory: a K-seed x
    M-parameter sweep over one topology builds its table once here
    too. A failed point goes back to the scheduler, which hands it out
    again once its backoff has elapsed. Crash and hang recovery are
    inherently process-pool features, so the serial path only ever
    sees the ``exception`` kind.
    """

    def __init__(self, *, retry_policy: RetryPolicy | None = None,
                 keep_going: bool = True) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going

    def _drive(self, base: FastSimulationConfig,
               points: Sequence[SweepPoint], state: QueueState,
               settle: Callable[..., bool]) -> None:
        base_payload = dataclasses.asdict(base)
        while not state.finished:
            lease = state.lease(_LOCAL, 1)
            time.sleep(lease["retry_after"] or 0.0)  # a retry backs off
            for entry in lease["points"]:
                try:
                    outcome = execute_point(
                        base_payload, entry["point"],
                        attempt=entry["attempt"],
                    )
                except Exception as error:
                    state.fail(_LOCAL, entry["point"]["point_id"],
                               "exception", error)
                else:
                    state.record_outcome(_LOCAL, outcome)
            settle()


class ProcessExecutor(SweepExecutor):
    """Fan points out over a spawn-based process pool.

    Results are collected as they complete (so the store can persist
    incrementally) and re-sorted into canonical point order before
    returning; scheduling order never leaks into the output.

    The pool leases one point per idle worker, so a submitted future
    is running almost immediately — which is what lets the
    ``point_timeout`` lease deadline be measured from the lease. Three
    recovery paths, each a charge on the scheduler:

    * a worker **exception** charges the point one ``exception``
      attempt; the scheduler hands it out again after the policy's
      backoff;
    * a **dead worker** breaks the whole pool; the executor kills and
      rebuilds it (at most ``max_pool_restarts`` times per run) and
      charges every lost lease one ``crash`` attempt — attribution is
      impossible, and the charge makes a deterministically crashing
      point exhaust its budget instead of looping forever;
    * a point running past ``point_timeout`` is **hung**: pool
      workers cannot be cancelled individually, so its expired lease
      is charged a ``timeout`` attempt, the pool is killed and
      rebuilt, and the innocent leases in flight go back to the
      queue *without* losing budget.

    Each :meth:`run` starts a pool and kills it before it returns.
    Inside ``with executor:`` the runs share one pool of ``jobs``
    workers instead, killed when the block ends; a ``sweep-work``
    host runs every lease batch of its session that way rather than
    spawning a pool per batch. A run that raises still kills its pool,
    and the next run starts a new one.
    """

    def __init__(self, jobs: int, *, cap_jobs: bool = False,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = True,
                 point_timeout: float | None = None,
                 max_pool_restarts: int = 8) -> None:
        self.jobs = resolve_jobs(jobs, cap_jobs=cap_jobs)
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be > 0, got {point_timeout}"
            )
        self.point_timeout = point_timeout
        self.lease_timeout = point_timeout or math.inf
        if max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        self.max_pool_restarts = max_pool_restarts
        #: Inside ``with``: the pool the next run reuses, if any.
        self._session_pool: ProcessPoolExecutor | None = None
        self._in_session = False

    def __enter__(self) -> "ProcessExecutor":
        self._in_session = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._in_session = False
        pool, self._session_pool = self._session_pool, None
        if pool is not None:
            self._terminate_pool(pool)

    # ------------------------------------------------------------------
    # Shared-memory publication

    def _publish_tables(self, base: FastSimulationConfig,
                        points: Sequence[SweepPoint]
                        ) -> tuple[dict[str, dict], list[str]]:
        """Build each unique topology once and publish it to workers.

        Returns (handle payloads keyed by fingerprint, acquired
        fingerprints to release). Falls back to unshared execution —
        workers rebuild — when shared memory is unavailable on this
        platform. Any failure mid-publication releases exactly the
        handles acquired so far before falling back or re-raising: a
        partial publish must never leak segments.
        """
        from ..backends.fast import cached_overlay
        from ..perf.shared import shared_table_registry
        from ..perf.table_cache import global_table_cache

        payloads: dict[str, dict] = {}
        acquired: list[str] = []
        try:
            registry = shared_table_registry()
            for overlay_config in table_topologies(base, points):
                table = global_table_cache().get(
                    cached_overlay(overlay_config)
                )
                handle = registry.acquire(table)
                acquired.append(handle.fingerprint)
                payloads[handle.fingerprint] = handle.to_payload()
        except BaseException as error:
            self._release_handles(acquired)
            if isinstance(error, (ImportError, OSError)):
                warnings.warn(
                    f"shared-memory table publication unavailable "
                    f"({error}); sweep workers will rebuild next-hop "
                    f"tables",
                    RuntimeWarning,
                )
                return {}, []
            raise
        return payloads, acquired

    @staticmethod
    def _release_handles(acquired: Sequence[str]) -> None:
        """Release published segments, exception-safe per handle.

        One failing release (a segment torn down behind our back, a
        tracker hiccup) must not strand the remaining handles — each
        release is isolated and failures demote to warnings.
        """
        if not acquired:
            return
        from ..perf.shared import shared_table_registry

        registry = shared_table_registry()
        for key in acquired:
            try:
                registry.release(key)
            except Exception as error:  # pragma: no cover - best effort
                warnings.warn(
                    f"failed to release shared table segment {key!r}: "
                    f"{error}",
                    RuntimeWarning,
                )

    # ------------------------------------------------------------------
    # Pool lifecycle

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """A spawn pool of *workers*, each set up for its share of the
        host (:func:`~repro.sweeps.worker.set_up_worker`)."""
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn"),
            initializer=set_up_worker, initargs=(workers,),
        )

    def _launch_pool(self, workers: int) -> ProcessPoolExecutor:
        """A new pool whose *workers* are already starting.

        A ``spawn`` pool starts one worker per ``submit``. One no-op
        :func:`~repro.sweeps.worker.warm_up` per worker makes every
        worker spawn and import :mod:`repro.sweeps.worker` now, while
        the parent publishes tables, instead of after. Nothing large
        rides on the spawn itself (the initializer takes one int): a
        child reads its spawn data only as it imports, so a large blob
        would hold the parent's next spawn until the previous child
        had imported.
        """
        pool = self._new_pool(workers)
        try:
            for _ in range(workers):
                pool.submit(warm_up)
        except BaseException:
            self._terminate_pool(pool)
            raise
        return pool

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill every worker and shut the pool down without blocking.

        SIGKILL (not terminate) because the workers we tear down this
        way are hung or already broken — and a killed pool joins
        immediately, so the interpreter's atexit hook can never block
        on a worker that will not finish.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - best effort
            pass

    def _count_restart(self, restarts: int, why: str) -> int:
        restarts += 1
        if restarts > self.max_pool_restarts:
            raise SweepExecutionError(
                f"worker pool needed {restarts} restarts "
                f"(max_pool_restarts={self.max_pool_restarts}); "
                f"last cause: {why}. The sweep is likely facing a "
                f"systematic crash — run with --jobs 1 to see the "
                f"failure directly."
            )
        warnings.warn(
            f"sweep worker pool {why}; rebuilding "
            f"(restart {restarts}/{self.max_pool_restarts})",
            RuntimeWarning,
        )
        return restarts

    # ------------------------------------------------------------------
    # Execution

    def _drive(self, base: FastSimulationConfig,
               points: Sequence[SweepPoint], state: QueueState,
               settle: Callable[..., bool]) -> None:
        base_payload = dataclasses.asdict(base)
        # A session's pool serves every run, whatever its size.
        workers = self.jobs if self._in_session else min(self.jobs,
                                                         len(points))
        handles: dict[str, dict] = {}
        acquired: list[str] = []
        inflight: dict[Future, str] = {}
        restarts = 0
        # Workers spawn and import while the tables are published.
        pool, self._session_pool = self._session_pool, None
        if pool is None:
            pool = self._launch_pool(workers)
        keep = False
        try:
            handles, acquired = self._publish_tables(base, points)
            while not state.finished:
                why = None
                try:
                    retry_after = self._submit(pool, state, inflight,
                                               workers, base_payload,
                                               handles)
                    # The pool is full again before the (slow) store
                    # saves, so no worker idles through them.
                    settle()
                    if not inflight:
                        time.sleep(retry_after or 0.0)  # retries back off
                        continue
                    wake = min(retry_after or math.inf,
                               state.until_deadline())
                    done, _ = wait(
                        inflight, return_when=FIRST_COMPLETED,
                        timeout=None if wake == math.inf
                        else max(0.05, wake),
                    )
                    for future in done:
                        point_id = inflight.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            inflight[future] = point_id  # lost with the pool
                            why = "lost a worker process"
                        except Exception as error:
                            state.fail(_LOCAL, point_id, "exception", error)
                        else:
                            state.record_outcome(_LOCAL, outcome)
                except BrokenProcessPool:
                    why = "lost a worker process"
                if why is not None:
                    for point_id in inflight.values():
                        state.fail(_LOCAL, point_id, "crash", WorkerCrash(
                            "worker process died while this point was "
                            "in flight"
                        ))
                elif self.point_timeout is not None:
                    hung = state.expire_overdue("timeout", PointTimeout(
                        f"point exceeded point-timeout "
                        f"{self.point_timeout:g}s"
                    ))
                    if hung:
                        why = (f"had {len(hung)} point(s) exceed "
                               f"point_timeout={self.point_timeout:g}s")
                if why is not None:
                    restarts = self._count_restart(restarts, why)
                    self._terminate_pool(pool)
                    pool = self._new_pool(workers)
                    # Bystanders and unsubmitted leases: no charge.
                    state.release(_LOCAL)
                    inflight.clear()
            keep = self._in_session
        finally:
            try:
                if keep:
                    self._session_pool = pool
                else:
                    self._terminate_pool(pool)
            finally:
                self._release_handles(acquired)

    def _submit(self, pool: ProcessPoolExecutor, state: QueueState,
                inflight: dict, workers: int, base_payload: dict,
                handles: dict) -> float | None:
        """Lease a point for every idle worker and submit it.

        Returns the scheduler's ``retry_after``. A broken pool raises
        with the unsubmitted points still leased; the caller releases
        them.
        """
        if len(inflight) >= workers:
            return None
        lease = state.lease(_LOCAL, workers - len(inflight))
        for entry in lease["points"]:
            future = pool.submit(
                execute_point, base_payload, entry["point"],
                handles or None, entry["attempt"],
            )
            inflight[future] = entry["point"]["point_id"]
        return lease["retry_after"]


def make_executor(jobs: int, *, cap_jobs: bool = False,
                  retry_policy: RetryPolicy | None = None,
                  keep_going: bool = True,
                  point_timeout: float | None = None,
                  max_pool_restarts: int = 8,
                  workers: int | None = None,
                  spec: SweepSpec | None = None,
                  lease_timeout: float = 300.0,
                  shard_dir=None,
                  queue_host: str = "127.0.0.1",
                  queue_port: int = 0) -> SweepExecutor:
    """Serial for ``jobs == 1``, a spawn process pool otherwise.

    With ``workers`` set, a :class:`~repro.sweeps.distributed.
    DistributedExecutor` instead: *workers* host subprocesses pull
    points from an HTTP work queue and each runs ``jobs`` local
    processes. The distributed executor serves the sweep spec to its
    hosts, so ``spec`` is required then; ``lease_timeout``,
    ``shard_dir`` and the queue bind address apply only to it.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if workers is not None:
        if spec is None:
            raise ConfigurationError(
                "the distributed executor needs the sweep spec (it "
                "serves it to worker hosts); pass spec= alongside "
                "workers="
            )
        from .distributed import DistributedExecutor

        return DistributedExecutor(
            workers, spec=spec, jobs=jobs, cap_jobs=cap_jobs,
            retry_policy=retry_policy, keep_going=keep_going,
            point_timeout=point_timeout,
            max_pool_restarts=max_pool_restarts,
            lease_timeout=lease_timeout, host=queue_host,
            port=queue_port, shard_dir=shard_dir,
        )
    if jobs == 1:
        if point_timeout is not None:
            warnings.warn(
                "point_timeout needs the process executor (a hung "
                "in-process point has no watchdog); ignored for "
                "--jobs 1",
                RuntimeWarning,
            )
        return SerialExecutor(retry_policy=retry_policy,
                              keep_going=keep_going)
    return ProcessExecutor(jobs, cap_jobs=cap_jobs,
                           retry_policy=retry_policy,
                           keep_going=keep_going,
                           point_timeout=point_timeout,
                           max_pool_restarts=max_pool_restarts)
