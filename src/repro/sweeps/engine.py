"""Sweep orchestration: expand, execute, persist, aggregate.

:func:`run_sweep` is the one entry point the CLI, the registry-level
replicated experiments, and perfbench's sweep-grid workload share::

    spec = SweepSpec(grid={"bucket_size": (4, 8, 16)}, seeds=10,
                     backends=("fast", "reference"))
    sweep = run_sweep(spec, jobs=4, store_path=Path("sweep.json"))
    for cell in sweep.summaries:
        print(cell.label, cell.metrics["mean_forwarded"])

Execution goes through :mod:`repro.sweeps.executors` (serial or a
spawn-safe process pool); completed points stream into the
:class:`~repro.sweeps.store.SweepStore` as they finish, so an
interrupted sweep resumes where it stopped. ``points_per_second``
counts only freshly executed points. perfbench's sweep-grid workload
measures the pool against the serial loop (``points_per_s`` vs
``sweeps.serial_points_per_s``); ``tests/sweeps/test_determinism.py``
pins their records identical.

Runs are fault-tolerant end to end: failed points retry under a
deterministic policy and quarantine into the store's ``failures``
section when they exhaust ``max_retries`` (see
:mod:`repro.sweeps.resilience`); SIGINT/SIGTERM trigger a graceful
shutdown — every completed point is already on disk, shared-memory
segments are released, and the partial :class:`SweepResult` comes
back with ``interrupted`` set so the CLI can report and exit
``128 + signum``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SweepInterrupted
from .aggregate import CellSummary, aggregate_records
from .chaos import FAULT_PLAN_ENV
from .executors import make_executor
from .progress import ProgressReporter
from .resilience import PointFailure, RetryPolicy
from .spec import SweepSpec
from .store import SweepStore
from .worker import PointOutcome

__all__ = ["SweepResult", "run_sweep", "outcome_record", "sweep_status"]


def outcome_record(outcome: PointOutcome) -> dict:
    """The persistable (scalar) record of one executed point.

    Deliberately carries no expansion ``index``: the canonical order
    is a property of the *current* spec (it shifts when a store is
    seed-extended), so records identify points by ``point_id`` alone
    and stay byte-comparable against a fresh run of the same spec.
    """
    return {
        "point_id": outcome.point_id,
        "backend": outcome.backend,
        "overrides": dict(outcome.overrides),
        "replica": outcome.replica,
        "workload_seed": outcome.workload_seed,
        "metrics": dict(outcome.metrics),
    }


@dataclass
class SweepResult:
    """One sweep run: canonical point records plus cell summaries.

    ``records`` covers every point of the spec in canonical order
    (freshly executed or resumed from the store — resumed points carry
    metrics only, never vectors). ``executed``/``resumed`` split the
    two; ``elapsed`` and ``points_per_second`` time only the executed
    portion. ``failures`` lists the points quarantined after
    exhausting their retry budget (empty on a healthy run), and
    ``interrupted`` carries the signal number when a graceful
    SIGINT/SIGTERM shutdown cut the run short.
    """

    spec: SweepSpec
    records: list[dict]
    summaries: list[CellSummary]
    executed: int
    resumed: int
    elapsed: float
    failures: list[PointFailure] = field(default_factory=list)
    interrupted: int | None = None

    @property
    def points_per_second(self) -> float:
        """Executed-point throughput of this run."""
        if self.executed == 0 or self.elapsed <= 0.0:
            return 0.0
        return self.executed / self.elapsed


@contextmanager
def _graceful_shutdown():
    """Convert SIGINT/SIGTERM into :class:`SweepInterrupted`.

    Installed only in the main thread (signal handlers cannot be set
    elsewhere); the handler raises, which unwinds the executor
    through its cleanup path — pool killed, shared memory released —
    while every already-completed point is safely in the store.
    Previous handlers are restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        raise SweepInterrupted(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - no signals
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


@contextmanager
def _fault_plan_env(fault_plan: Path | None):
    """Expose *fault_plan* to this process and its spawn workers."""
    if fault_plan is None:
        yield
        return
    previous = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = str(fault_plan)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous


def sweep_status(spec: SweepSpec, store_path: Path | None = None, *,
                 salvage: bool = False) -> dict:
    """What a sweep run would do — without executing anything.

    Backs ``repro-swarm sweep --dry-run``: opens (but never writes)
    the store at *store_path* and splits the spec's canonical points
    into ``completed`` (recorded), ``quarantined`` (in the failures
    section — counted as pending too, since a resume re-runs them
    with a fresh budget), and ``pending``. Ids come back in canonical
    spec order.
    """
    points = spec.points()
    completed_ids: set[str] = set()
    quarantined_ids: set[str] = set()
    if store_path is not None:
        store = SweepStore.open(Path(store_path), spec, resume=True,
                                salvage=salvage)
        completed_ids = store.completed_ids()
        quarantined_ids = set(store.failures)
    return {
        "total": len(points),
        "completed": [point.point_id for point in points
                      if point.point_id in completed_ids],
        "pending": [point.point_id for point in points
                    if point.point_id not in completed_ids],
        "quarantined": [point.point_id for point in points
                        if point.point_id in quarantined_ids],
    }


def run_sweep(spec: SweepSpec, *, jobs: int = 1,
              store_path: Path | None = None,
              resume: bool = True,
              confidence: float = 0.95,
              cap_jobs: bool = False,
              max_retries: int = 2,
              retry_backoff: float = 0.05,
              point_timeout: float | None = None,
              keep_going: bool = True,
              max_pool_restarts: int = 8,
              fault_plan: Path | None = None,
              salvage: bool = False,
              workers: int | None = None,
              lease_timeout: float = 300.0,
              shard_dir: Path | None = None,
              progress: bool | None = None) -> SweepResult:
    """Execute *spec*, optionally persisting/resuming a JSON store.

    ``jobs <= 1`` runs serially in-process; larger values fan points
    out over a spawn process pool. Results are identical either way
    (see :mod:`repro.sweeps.executors`). With ``store_path``, points
    already recorded there are skipped and the store is re-saved as
    each new point completes. A process pool has the parent publish
    each unique topology's next-hop table to shared memory so workers
    attach instead of rebuilding; ``cap_jobs``
    clamps ``jobs`` to ``os.cpu_count()`` instead of merely warning
    about oversubscription.

    Fault tolerance: every point gets ``max_retries`` extra attempts
    (deterministic capped-exponential backoff from
    ``retry_backoff``); ``point_timeout`` arms the process executor's
    hang watchdog; ``keep_going=False`` aborts on the first point
    that exhausts its budget instead of quarantining it;
    ``max_pool_restarts`` bounds crash/hang pool rebuilds per run.
    ``fault_plan`` points workers at a :mod:`~repro.sweeps.chaos`
    JSON plan (testing/CI). ``salvage`` lets a corrupt/truncated
    store at *store_path* be recovered (parseable records kept,
    the rest re-run) instead of refused.

    ``workers`` switches to the distributed executor: that many
    ``sweep-work`` host subprocesses pull points from an HTTP work
    queue (see :mod:`repro.sweeps.distributed`), each running
    ``jobs`` local processes and writing a durable shard store under
    ``shard_dir`` (a temp dir when unset); ``lease_timeout`` bounds
    how long a silent host keeps its leases. Results — including the
    store at *store_path* — are byte-identical to a local run.

    ``progress`` draws ``completed/total · points/s · ETA`` on stderr
    (``None``: only when stderr is a tty), identically for every
    executor.
    """
    points = spec.points()
    store = None
    completed: set[str] = set()
    if store_path is not None:
        store = SweepStore.open(store_path, spec, resume=resume,
                                salvage=salvage)
        completed = store.completed_ids()

    pending = [point for point in points if point.point_id not in completed]
    if store is not None:
        # A quarantined point gets a fresh chance on resume: its stale
        # failure record is dropped here and rewritten only if the
        # point exhausts its budget again.
        for point in pending:
            store.failures.pop(point.point_id, None)

    executed: dict[str, dict] = {}
    failures: list[PointFailure] = []
    reporter = ProgressReporter(
        total=len(points),
        completed=len(points) - len(pending),
        enabled=progress,
    )

    def on_result(outcome: PointOutcome) -> None:
        # Collected through the callback (not the executor's return
        # value) so completed points survive a graceful interrupt.
        executed[outcome.point_id] = outcome_record(outcome)
        if store is not None:
            # Full rewrite per point: O(points^2) serialization, but
            # an interrupted sweep never loses a completed point and
            # the final file is identical however far the run got.
            store.add(executed[outcome.point_id])
            store.save()
        reporter.advance()

    def on_failure(failure: PointFailure) -> None:
        failures.append(failure)
        if store is not None:
            store.add_failure(failure.record())
            store.save()
        reporter.advance()

    policy = RetryPolicy(max_retries=max_retries,
                         backoff_base=retry_backoff)
    executor = make_executor(jobs, cap_jobs=cap_jobs,
                             retry_policy=policy,
                             keep_going=keep_going,
                             point_timeout=point_timeout,
                             max_pool_restarts=max_pool_restarts,
                             workers=workers,
                             spec=spec if workers is not None else None,
                             lease_timeout=lease_timeout,
                             shard_dir=shard_dir)
    interrupted: int | None = None
    started = time.perf_counter()
    with _fault_plan_env(fault_plan), _graceful_shutdown():
        try:
            executor.run(spec.base, pending, on_result, on_failure)
        except SweepInterrupted as signal_error:
            interrupted = signal_error.signum
        finally:
            reporter.close()
    elapsed = time.perf_counter() - started
    if store is not None and not executed:
        # Nothing executed (fully resumed, or a points-free store):
        # still materialize spec/provenance on disk.
        store.save()

    records = []
    for point in points:
        record = executed.get(point.point_id)
        if record is None and store is not None:
            stored = store.points.get(point.point_id)
            if stored is not None:
                record = {"point_id": point.point_id, **stored}
        if record is not None:
            records.append(record)

    return SweepResult(
        spec=spec,
        records=records,
        summaries=aggregate_records(spec, records, confidence),
        executed=len(executed),
        resumed=len(records) - len(executed),
        elapsed=elapsed,
        failures=failures,
        interrupted=interrupted,
    )
