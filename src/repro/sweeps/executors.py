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

Execution is **fault-tolerant** (see :mod:`repro.sweeps.resilience`):
a point that raises is retried under a deterministic
:class:`~repro.sweeps.resilience.RetryPolicy` and quarantined (not
fatal) when it exhausts the budget; a dead worker process
(``BrokenProcessPool`` — segfault, OOM-kill, ``os._exit``) triggers a
bounded pool rebuild with every lost in-flight point resubmitted; a
wall-clock ``point_timeout`` watchdog recycles the pool out from
under a hung point and counts the hang as a retryable failure. A
point that fails and then succeeds within the budget leaves no trace
in its outcome — recovered sweeps stay byte-identical to fault-free
ones, the property :mod:`repro.sweeps.chaos` fault plans pin in CI.

Spawned workers share built routing tables instead of rebuilding
them: the parent resolves each unique topology's
:class:`~repro.backends.fast.NextHopTable` once through the global
:class:`~repro.perf.table_cache.TableCache`, publishes it to shared
memory via the :class:`~repro.perf.shared.SharedTableRegistry`
(refcounted; unlinked when the run ends), and ships the handles with
every work item — the fix for PR 2's finding that ``--jobs 4`` lost
to serial because each worker rebuilt every table. The overlay rides
with its table (as JSON bytes in one more segment), so a worker
decodes each topology once instead of rebuilding it. Scenario points
get the same treatment one level up: the parent replays each unique
schedule once (:func:`~repro.scenarios.plan.precompute_epoch_tables`)
and publishes the per-epoch storer tables and sparse coded-matrix
patches alongside the dense tables, so replicas install shared views
instead of re-deriving the epoch chain per worker. ``share_tables=
False`` restores the rebuild-per-worker behavior (tables and
overlays) for comparison.

A :class:`ProcessExecutor` run keeps its workers busy from the
start: it launches the pool *before* publishing, so the workers spawn
and import while the parent copies tables into shared memory, and
after each completed point it submits the next one *before* handing
the outcome to ``on_result`` (the store save), so no worker idles
through a save.

Every executor's points split their large slabs' hop waves across
every CPU (:meth:`~repro.backends.fast.FastSimulation._route_waves`),
pool workers included: with the workers already filling the CPUs
that oversubscribes threads, but a one-thread share per worker read
no faster on the sweep benchmark, and stores are byte-identical
either way.

Requesting more workers than the machine has CPUs is allowed but
warned about (PR 2 also measured oversubscribed sweeps running
*slower* than serial: the points are CPU-bound, so extra workers only
add contention); ``cap_jobs=True`` clamps to ``os.cpu_count()``
instead.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..backends.base import get_backend_class
from ..backends.config import FastSimulationConfig
from ..errors import ConfigurationError, SweepExecutionError
from ..kademlia.overlay import OverlayConfig
from .resilience import FailureTracker, PointFailure, RetryPolicy
from .spec import SweepPoint, SweepSpec
from .worker import PointOutcome, execute_point, point_payload, warm_up

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
    """Runs sweep points; subclasses choose the execution strategy."""

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
        raise NotImplementedError

    def _point_failed(self, point: SweepPoint, kind: str,
                      error: BaseException, tracker: FailureTracker,
                      on_failure: OnFailure | None) -> bool:
        """Charge one failed attempt; ``True`` if the point may retry.

        On exhaustion the terminal failure is reported to *on_failure*
        (quarantine) or raised (``keep_going=False``).
        """
        failure = tracker.record(point, kind, error)
        if failure is None:
            return True
        if on_failure is not None:
            on_failure(failure)
        if not self.keep_going:
            raise SweepExecutionError(
                f"sweep aborted (fail-fast): {failure.describe()}"
            ) from error
        return False


class SerialExecutor(SweepExecutor):
    """In-process, one point at a time — the determinism reference.

    The process-global table cache already deduplicates builds within
    one process, so the serial path needs no shared memory: a K-seed x
    M-parameter sweep over one topology builds its table once here
    too. Failures retry in place (with the policy's backoff) — crash
    and hang recovery are inherently process-pool features, so the
    serial path only ever sees the ``exception`` kind.
    """

    def __init__(self, *, epoch_cache_tables: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = True) -> None:
        self.epoch_cache_tables = epoch_cache_tables
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going

    def run(self, base: FastSimulationConfig,
            points: Sequence[SweepPoint],
            on_result: OnResult | None = None,
            on_failure: OnFailure | None = None,
            attempts: Mapping[str, int] | None = None
            ) -> list[PointOutcome]:
        base_payload = dataclasses.asdict(base)
        tracker = FailureTracker(self.retry_policy,
                                 attempts=dict(attempts or {}))
        outcomes = []
        for point in points:
            while True:
                attempt = tracker.failed_attempts(point)
                try:
                    outcome = execute_point(
                        base_payload, point_payload(point),
                        epoch_cache_tables=self.epoch_cache_tables,
                        attempt=attempt,
                    )
                except Exception as error:
                    if self._point_failed(point, "exception", error,
                                          tracker, on_failure):
                        delay = self.retry_policy.delay(attempt)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    break
                if on_result is not None:
                    on_result(outcome)
                outcomes.append(outcome)
                break
        outcomes.sort(key=lambda o: o.index)
        return outcomes


@dataclasses.dataclass
class _InFlight:
    """One submitted point: its attempt number and watchdog deadline."""

    point: SweepPoint
    attempt: int
    deadline: float | None


class ProcessExecutor(SweepExecutor):
    """Fan points out over a spawn-based process pool.

    Results are collected as they complete (so the store can persist
    incrementally) and re-sorted into canonical point order before
    returning; scheduling order never leaks into the output.

    At most ``jobs`` points are in flight at a time (the rest wait in
    a parent-side queue), so a submitted future is running almost
    immediately — which is what lets ``point_timeout`` deadlines be
    measured from submission. Three recovery paths:

    * a worker **exception** charges the point one attempt and
      reschedules it after the policy's backoff;
    * a **dead worker** breaks the whole pool; the executor kills and
      rebuilds it (at most ``max_pool_restarts`` times per run) and
      charges every lost in-flight point one ``crash`` attempt —
      attribution is impossible, and the charge makes a
      deterministically crashing point exhaust its budget instead of
      looping forever;
    * a point running past ``point_timeout`` is **hung**: pool
      workers cannot be cancelled individually, so the pool is killed
      and rebuilt, the hung point is charged a ``timeout`` attempt,
      and innocent in-flight points are resubmitted *without* losing
      budget.
    """

    def __init__(self, jobs: int, *, share_tables: bool = True,
                 cap_jobs: bool = False,
                 epoch_cache_tables: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = True,
                 point_timeout: float | None = None,
                 max_pool_restarts: int = 8) -> None:
        self.jobs = resolve_jobs(jobs, cap_jobs=cap_jobs)
        self.share_tables = share_tables
        self.epoch_cache_tables = epoch_cache_tables
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be > 0, got {point_timeout}"
            )
        self.point_timeout = point_timeout
        if max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        self.max_pool_restarts = max_pool_restarts

    # ------------------------------------------------------------------
    # Shared-memory publication

    def _publish_tables(self, base: FastSimulationConfig,
                        points: Sequence[SweepPoint]
                        ) -> tuple[dict[str, dict], list[str]]:
        """Build each unique topology once and publish it to workers.

        Returns (handle payloads keyed by fingerprint, acquired
        fingerprints to release). Alongside the dense tables, every
        unique ``(topology, scenario schedule)`` among the points gets
        its epoch artifacts — per-epoch storer tables and sparse coded
        patches — precomputed here and published too, so replicas
        replaying one schedule install them instead of re-deriving the
        chain in every worker (the patch scan happens once per
        machine). Falls back to unshared execution — workers rebuild,
        exactly the pre-cache behavior — when shared memory is
        unavailable on this platform. Any failure mid-publication
        (including inside the epoch loop) releases exactly the handles
        acquired so far before falling back or re-raising: a partial
        publish must never leak segments.
        """
        from ..backends.fast import cached_overlay
        from ..perf.shared import shared_table_registry
        from ..perf.table_cache import global_table_cache

        payloads: dict[str, dict] = {}
        acquired: list[str] = []
        registry = shared_table_registry()
        try:
            for overlay_config in table_topologies(base, points):
                table = global_table_cache().get(
                    cached_overlay(overlay_config)
                )
                handle = registry.acquire(table)
                acquired.append(handle.fingerprint)
                payloads[handle.fingerprint] = handle.to_payload()
            self._publish_epoch_tables(
                base, points, registry, payloads, acquired
            )
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

    def _publish_epoch_tables(self, base: FastSimulationConfig,
                              points: Sequence[SweepPoint],
                              registry, payloads: dict[str, dict],
                              acquired: list[str]) -> None:
        """Precompute and publish epoch artifacts per unique schedule.

        A schedule is identified by its topology fingerprint plus the
        composed scenario spec and epoch count — everything the
        chained fingerprints derive from — so seed replicas of one
        dynamics point share a single publication.
        """
        from ..backends.fast import cached_overlay
        from ..perf.table_cache import global_table_cache
        from ..scenarios.plan import precompute_epoch_tables

        seen: set[str] = set()
        for point in points:
            if not get_backend_class(point.backend).uses_next_hop_table:
                continue
            config = point.config(base)
            if not config.has_scenarios:
                continue
            scenario = config.scenario_stack()
            if scenario is None:
                continue
            ctx = config.scenario_context()
            table = global_table_cache().get(
                cached_overlay(config.overlay_config())
            )
            fingerprint = table.overlay.fingerprint()
            key = (f"epochs:{fingerprint}:"
                   f"{scenario.spec()}:{ctx.n_epochs}")
            if key in seen:
                continue
            seen.add(key)
            storer_tables, patches = precompute_epoch_tables(
                scenario, ctx,
                table_fingerprint=fingerprint,
                base_storers=table.storer,
                addresses=table.overlay.address_array(),
                coded=global_table_cache().writable_coded(table),
            )
            if not storer_tables and not patches:
                continue
            handle = registry.acquire_epochs(
                key, storer_tables, patches, table.n_nodes
            )
            acquired.append(key)
            payloads[key] = handle.to_payload()

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
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        )

    def _launch_pool(self, workers: int) -> ProcessPoolExecutor:
        """A new pool whose *workers* are already starting.

        A ``spawn`` pool starts one worker per ``submit``. One no-op
        :func:`~repro.sweeps.worker.warm_up` per worker makes every
        worker spawn and import :mod:`repro.sweeps.worker` now, while
        the parent publishes tables, instead of after. Nothing large
        rides on the spawn itself (no initializer arguments): a child
        reads its spawn data only as it imports, so a large blob would
        hold the parent's next spawn until the previous child had
        imported.
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

    def run(self, base: FastSimulationConfig,
            points: Sequence[SweepPoint],
            on_result: OnResult | None = None,
            on_failure: OnFailure | None = None,
            attempts: Mapping[str, int] | None = None
            ) -> list[PointOutcome]:
        if not points:
            return []
        base_payload = dataclasses.asdict(base)
        workers = min(self.jobs, len(points))
        handles: dict[str, dict] = {}
        acquired: list[str] = []
        tracker = FailureTracker(self.retry_policy,
                                 attempts=dict(attempts or {}))
        outcomes: list[PointOutcome] = []
        #: Points eligible to run now (initial order = canonical).
        ready: deque[SweepPoint] = deque(points)
        #: Backoff-delayed retries: (ready_at, tiebreak, point).
        retries: list[tuple[float, int, SweepPoint]] = []
        sequence = itertools.count()
        inflight: dict = {}
        restarts = 0
        # Workers spawn and import while the tables are published.
        pool = self._launch_pool(workers)
        try:
            if self.share_tables:
                handles, acquired = self._publish_tables(base, points)
            while ready or retries or inflight:
                self._promote_retries(ready, retries)
                broken = self._top_up(pool, base_payload, handles, ready,
                                      inflight, tracker, workers)
                if not broken:
                    if not inflight:
                        # Only backoff-delayed retries remain.
                        pause = max(0.0, retries[0][0] - time.monotonic())
                        time.sleep(min(pause, 0.25))
                        continue
                    done, _ = wait(
                        set(inflight),
                        timeout=self._wait_timeout(inflight, retries),
                        return_when=FIRST_COMPLETED,
                    )
                    completed: list[PointOutcome] = []
                    try:
                        broken = self._collect(done, inflight, completed,
                                               tracker, retries, sequence,
                                               on_failure)
                        if not broken:
                            # Refill the pool before the (slow) store
                            # save, so no worker idles through it.
                            self._promote_retries(ready, retries)
                            broken = self._top_up(
                                pool, base_payload, handles, ready,
                                inflight, tracker, workers,
                            )
                    finally:
                        for outcome in completed:
                            if on_result is not None:
                                on_result(outcome)
                            outcomes.append(outcome)
                if broken:
                    restarts = self._count_restart(
                        restarts, "lost a worker process"
                    )
                    self._terminate_pool(pool)
                    lost = list(inflight.values())
                    inflight.clear()
                    pool = self._new_pool(workers)
                    for running in lost:
                        crash = WorkerCrash(
                            "worker process died while this point was "
                            "in flight"
                        )
                        if self._point_failed(running.point, "crash",
                                              crash, tracker, on_failure):
                            heapq.heappush(retries, (
                                time.monotonic()
                                + self.retry_policy.delay(running.attempt),
                                next(sequence), running.point,
                            ))
                    continue
                restarts, pool = self._reap_hung(
                    pool, workers, restarts, ready, retries, sequence,
                    inflight, tracker, on_failure,
                )
        finally:
            try:
                self._terminate_pool(pool)
            finally:
                self._release_handles(acquired)
        outcomes.sort(key=lambda o: o.index)
        return outcomes

    @staticmethod
    def _promote_retries(ready: deque, retries: list) -> None:
        """Move retries whose backoff has elapsed onto *ready*."""
        now = time.monotonic()
        while retries and retries[0][0] <= now:
            ready.append(heapq.heappop(retries)[2])

    def _top_up(self, pool: ProcessPoolExecutor, base_payload: dict,
                handles: dict, ready: deque, inflight: dict,
                tracker: FailureTracker, workers: int) -> bool:
        """Submit ready points up to the worker count.

        Returns ``True`` when the pool turned out to be broken — the
        unsubmitted point goes back to the queue head and the caller
        runs crash recovery.
        """
        while ready and len(inflight) < workers:
            point = ready.popleft()
            attempt = tracker.failed_attempts(point)
            try:
                future = pool.submit(
                    execute_point, base_payload, point_payload(point),
                    handles or None, self.epoch_cache_tables, attempt,
                )
            except BrokenProcessPool:
                ready.appendleft(point)
                return True
            deadline = (
                None if self.point_timeout is None
                else time.monotonic() + self.point_timeout
            )
            inflight[future] = _InFlight(point, attempt, deadline)
        return False

    def _wait_timeout(self, inflight: dict,
                      retries: list) -> float | None:
        """How long :func:`wait` may block before bookkeeping is due."""
        now = time.monotonic()
        candidates = []
        if retries:
            candidates.append(retries[0][0] - now)
        deadlines = [running.deadline for running in inflight.values()
                     if running.deadline is not None]
        if deadlines:
            candidates.append(min(deadlines) - now)
        if not candidates:
            return None
        return max(0.05, min(candidates))

    def _collect(self, done, inflight: dict, completed: list,
                 tracker: FailureTracker, retries: list, sequence,
                 on_failure: OnFailure | None) -> bool:
        """Drain completed futures; ``True`` when the pool broke.

        Outcomes are appended to *completed*; the caller hands them to
        ``on_result`` after it has refilled the pool. On a broken pool
        the triggering future is pushed back into *inflight* so the
        caller's crash recovery charges it together with every other
        lost point.
        """
        for future in done:
            running = inflight.pop(future)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                inflight[future] = running
                return True
            except Exception as error:
                if self._point_failed(running.point, "exception", error,
                                      tracker, on_failure):
                    heapq.heappush(retries, (
                        time.monotonic()
                        + self.retry_policy.delay(running.attempt),
                        next(sequence), running.point,
                    ))
            else:
                completed.append(outcome)
        return False

    def _reap_hung(self, pool: ProcessPoolExecutor, workers: int,
                   restarts: int, ready: deque, retries: list, sequence,
                   inflight: dict, tracker: FailureTracker,
                   on_failure: OnFailure | None
                   ) -> tuple[int, ProcessPoolExecutor]:
        """Recycle the pool when any in-flight point is past deadline.

        The hung point is charged a ``timeout`` attempt; other
        in-flight points are innocent bystanders of the pool kill and
        requeue with their budget intact.
        """
        if self.point_timeout is None or not inflight:
            return restarts, pool
        now = time.monotonic()
        hung = [future for future, running in inflight.items()
                if running.deadline is not None
                and running.deadline <= now and not future.done()]
        if not hung:
            return restarts, pool
        hung_running = [inflight.pop(future) for future in hung]
        survivors = list(inflight.values())
        inflight.clear()
        restarts = self._count_restart(
            restarts,
            f"had {len(hung_running)} point(s) exceed "
            f"point_timeout={self.point_timeout:g}s",
        )
        self._terminate_pool(pool)
        pool = self._new_pool(workers)
        for running in survivors:
            ready.append(running.point)
        for running in hung_running:
            timeout_error = PointTimeout(
                f"point exceeded point-timeout "
                f"{self.point_timeout:g}s"
            )
            if self._point_failed(running.point, "timeout", timeout_error,
                                  tracker, on_failure):
                heapq.heappush(retries, (
                    time.monotonic()
                    + self.retry_policy.delay(running.attempt),
                    next(sequence), running.point,
                ))
        return restarts, pool


def make_executor(jobs: int, *, share_tables: bool = True,
                  cap_jobs: bool = False,
                  epoch_cache_tables: int | None = None,
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
            workers, spec=spec, jobs=jobs, share_tables=share_tables,
            cap_jobs=cap_jobs, epoch_cache_tables=epoch_cache_tables,
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
        return SerialExecutor(epoch_cache_tables=epoch_cache_tables,
                              retry_policy=retry_policy,
                              keep_going=keep_going)
    return ProcessExecutor(jobs, share_tables=share_tables,
                           cap_jobs=cap_jobs,
                           epoch_cache_tables=epoch_cache_tables,
                           retry_policy=retry_policy,
                           keep_going=keep_going,
                           point_timeout=point_timeout,
                           max_pool_restarts=max_pool_restarts)
