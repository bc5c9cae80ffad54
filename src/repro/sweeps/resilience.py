"""Failure records, retry policy and the one sweep scheduler.

:class:`QueueState` is the scheduler every executor leases its points
from. It charges failed attempts against a deterministic
:class:`RetryPolicy` — capped exponential backoff, deliberately
**without** jitter, so nothing time-dependent ever reaches recorded
state. A point that exhausts its ``max_retries`` extra attempts
becomes a :class:`PointFailure` (exception type, message digest,
attempt count) and is *quarantined* into the store's ``failures``
section (sorted, no timestamps) rather than aborting the sweep,
unless ``--fail-fast`` asked for the abort.

The design invariant: a point that fails and then succeeds within the
retry budget leaves **no trace** in the result store — its record is
identical to a never-failed run's, which is what extends the sweep
subsystem's byte-determinism guarantee from "regardless of --jobs" to
"regardless of recovered faults". Because one object does the
charging, a quarantine record is byte-identical too, however the
sweep was executed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import queue
import threading
import time
import traceback
from concurrent.futures.process import _RemoteTraceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from .spec import SweepPoint, SweepSpec
from .store import _record_problem
from .worker import PointOutcome, point_payload

__all__ = [
    "FAILURE_KINDS",
    "FailureTracker",
    "LEASE_CRASH_DIGEST",
    "LEASE_CRASH_ERROR",
    "PointFailure",
    "QueueState",
    "RetryPolicy",
    "failure_digest",
]

#: How a point attempt can fail: an exception raised by the worker, a
#: wall-clock ``--point-timeout`` expiry (hang), or the death of the
#: worker process itself (segfault, OOM-kill, injected ``os._exit``).
FAILURE_KINDS = ("exception", "timeout", "crash")


def failure_digest(error: BaseException) -> str:
    """A short deterministic digest of an exception chain.

    Hashes ``traceback.format_exception_only`` over the full
    ``__cause__``/``__context__`` chain — type and message only, never
    file paths or line numbers — so the digest is identical whether
    the exception was raised in-process (serial executor) or pickled
    back from a spawn worker, and identical across machines and
    checkouts. A pool worker's exception arrives with the remote
    traceback's text attached as its cause; that link holds file
    paths and line numbers, so the walk skips it.
    """
    parts: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if not isinstance(current, _RemoteTraceback):
            parts.extend(
                traceback.format_exception_only(type(current), current)
            )
        current = current.__cause__ or current.__context__
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PointFailure:
    """One sweep point's terminal failure after its last attempt.

    ``error`` is the human-readable ``Type: message`` of the last
    failure, ``digest`` the deterministic exception-chain hash (see
    :func:`failure_digest`), ``attempts`` the total number of tries
    (``max_retries + 1`` when the budget was exhausted).
    """

    point: SweepPoint
    kind: str
    error: str
    digest: str
    attempts: int

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown failure kind {self.kind!r}; expected one of "
                f"{FAILURE_KINDS}"
            )

    @property
    def point_id(self) -> str:
        return self.point.point_id

    def record(self) -> dict[str, Any]:
        """The deterministic store record (sorted keys, no timestamps).

        Mirrors :func:`~repro.sweeps.engine.outcome_record` minus the
        metrics: the quarantined point stays fully identified (backend,
        overrides, replica, derived seed) so a later resume — which
        clears the entry and re-runs the point — needs nothing but the
        store.
        """
        return {
            "point_id": self.point.point_id,
            "backend": self.point.backend,
            "overrides": dict(self.point.overrides),
            "replica": self.point.replica,
            "workload_seed": self.point.workload_seed,
            "kind": self.kind,
            "error": self.error,
            "digest": self.digest,
            "attempts": self.attempts,
        }

    def describe(self) -> str:
        """One human-readable line for CLI summaries."""
        return (f"{self.point.point_id}: {self.kind} after "
                f"{self.attempts} attempt(s) — {self.error}")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic capped exponential backoff for failed points.

    ``max_retries`` is the number of *extra* attempts after the first
    (so a point runs at most ``max_retries + 1`` times). The delay
    before retry ``a`` (0-based failed-attempt index) is
    ``min(backoff_cap, backoff_base * 2**a)`` — no jitter: randomized
    delays would make two runs of the same faulted sweep schedule
    differently, and while scheduling never reaches the recorded
    state, keeping the whole layer deterministic makes fault-plan
    tests exactly reproducible.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                "retry backoff times must be >= 0"
            )

    def allows(self, attempt: int) -> bool:
        """Whether failed attempt *attempt* (0-based) may be retried."""
        return attempt < self.max_retries

    def delay(self, attempt: int) -> float:
        """Seconds to wait before the retry after failed *attempt*."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))


@dataclass
class FailureTracker:
    """A :class:`QueueState`'s failed-attempt counts and policy."""

    policy: RetryPolicy
    attempts: dict[str, int] = field(default_factory=dict)

    def record(self, point: SweepPoint, kind: str,
               error: BaseException | str,
               digest: str | None = None) -> PointFailure | None:
        """Count one failed attempt; the failure once the budget is gone.

        *error* is the exception itself, or — for a failure observed
        somewhere else, such as a worker host whose exception died
        with it — its rendered ``Type: message`` together with the
        :func:`failure_digest` the host computed. Returns ``None``
        while the policy still allows a retry, else the terminal
        :class:`PointFailure`.
        """
        if isinstance(error, BaseException):
            error, digest = (f"{type(error).__name__}: {error}",
                             failure_digest(error))
        attempt = self.attempts.get(point.point_id, 0)
        self.attempts[point.point_id] = attempt + 1
        if self.policy.allows(attempt):
            return None
        return PointFailure(
            point=point,
            kind=kind,
            error=error,
            digest=digest,
            attempts=attempt + 1,
        )


class _HostVanished(RuntimeError):
    """Fixed-message stand-in exception for an expired host lease.

    Never raised — it exists so the expiry charge has a deterministic
    ``Type: message`` rendering and :func:`failure_digest`, exactly
    like :class:`~repro.sweeps.executors.WorkerCrash` gives in-flight
    points lost to a dead pool worker.
    """


_LEASE_CRASH = _HostVanished(
    "worker host vanished while this point was leased"
)

#: The error string charged to a point whose host lease expired.
LEASE_CRASH_ERROR = f"{type(_LEASE_CRASH).__name__}: {_LEASE_CRASH}"

#: Its deterministic digest (type + message only, machine-independent).
LEASE_CRASH_DIGEST = failure_digest(_LEASE_CRASH)


class QueueState:
    """The sweep scheduler: pending / leased / settled points.

    Every executor leases its points from one of these: the serial
    executor one at a time, the process pool one per idle worker, and
    worker hosts in batches over HTTP (see
    :mod:`repro.sweeps.queue_daemon`, which serves ``spec``; local
    executors pass ``None``). It alone orders the ready points
    (canonical order, then retries as their backoff elapses), tracks
    each lease's deadline and charges failed attempts. All public
    methods are lock-guarded (the HTTP server is threaded);
    settlements are emitted into :attr:`events` as ``("result",
    PointOutcome)`` and ``("failure", PointFailure)`` pairs for
    :meth:`settle`.

    ``attempts`` may seed prior failed-attempt counts; each lease
    carries the point's current count. Worker hosts run their local
    executor with a zero-retry policy seeded from the leased count, so
    a local quarantine is one globally-numbered attempt — and terminal
    records come back *from* the coordinator (see :meth:`fail`),
    keeping shard stores byte-identical to the coordinator's.
    """

    def __init__(self, spec: SweepSpec | None,
                 points: Sequence[SweepPoint], *,
                 retry_policy: RetryPolicy | None = None,
                 lease_timeout: float = 300.0,
                 attempts: Mapping[str, int] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        self.spec = spec
        self.lease_timeout = float(lease_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self.points: dict[str, SweepPoint] = {
            point.point_id: point for point in points
        }
        self.tracker = FailureTracker(
            retry_policy or RetryPolicy(),
            attempts=dict(attempts or {}),
        )
        self._sequence = itertools.count()
        #: Min-heap of (ready_at, seq, point_id) — seq keeps the
        #: initial canonical order among equally-ready points.
        self._ready: list[tuple[float, int, str]] = [
            (0.0, next(self._sequence), point.point_id)
            for point in points
        ]
        heapq.heapify(self._ready)
        #: point_id -> {"worker", "deadline"} while leased out.
        self.leases: dict[str, dict[str, Any]] = {}
        self.completed: set[str] = set()
        self.terminal: dict[str, dict] = {}
        self.events: queue.Queue = queue.Queue()

    # ------------------------------------------------------------------
    # Leases and their settlement

    def lease(self, worker: str, count: int) -> dict:
        """Hand *worker* up to *count* ready points.

        Returns ``{"points": [{"point": payload, "attempt": n}, ...],
        "done": bool, "retry_after": seconds|None}`` — ``done`` tells
        an idle worker to exit; ``retry_after``, set when fewer than
        *count* points were ready, when to ask again while retries
        back off or other workers' leases are still out.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            now = self._clock()
            leased: list[dict] = []
            while self._ready and len(leased) < count:
                ready_at, _, point_id = self._ready[0]
                if ready_at > now:
                    break
                heapq.heappop(self._ready)
                if point_id in self.completed or point_id in self.terminal:
                    continue  # settled while queued (stale entry)
                self.leases[point_id] = {
                    "worker": worker,
                    "deadline": now + self.lease_timeout,
                }
                leased.append({
                    "point": point_payload(self.points[point_id]),
                    "attempt": self.tracker.attempts.get(point_id, 0),
                })
            done = self._finished_locked()
            retry_after = None
            if len(leased) < count and not done:
                if self._ready:
                    retry_after = max(0.05, self._ready[0][0] - now)
                else:
                    retry_after = 0.5  # other workers' leases are out
            return {"points": leased, "done": done,
                    "retry_after": retry_after}

    def complete(self, worker: str, record: Mapping, index: int,
                 elapsed: float) -> dict:
        """Settle one point a host executed, reported as its record.

        Idempotent: a point re-leased after a false-positive expiry is
        eventually completed twice with byte-identical records (the
        sweep is deterministic); only the first settles and emits. A
        success also supersedes a quarantine recorded meanwhile —
        matching :meth:`SweepStore.add`, which drops the failure entry.

        The response carries ``done`` so the host that settles the
        final point learns immediately — without racing a /lease poll
        against the coordinator tearing the daemon down.
        """
        elapsed = float(elapsed)
        if not math.isfinite(elapsed):
            raise ValueError(f"elapsed must be finite, got {elapsed!r}")
        if record["point_id"] not in self.points:
            raise KeyError(f"unknown point {record['point_id']!r}")
        # The checks a stored record passes; nothing is coerced.
        problem = _record_problem(record["point_id"], record,
                                  set(self.points), True)
        if problem is not None:
            raise ValueError(f"record {problem}")
        if not isinstance(record["overrides"], dict):
            raise ValueError(f"record overrides must be a JSON object, "
                             f"got {record['overrides']!r}")
        return self.record_outcome(worker, PointOutcome(
            point_id=record["point_id"],
            index=int(index),
            backend=record["backend"],
            overrides=dict(record["overrides"]),
            replica=record["replica"],
            workload_seed=record["workload_seed"],
            metrics=dict(record["metrics"]),
            vectors={},  # per-node arrays stay on the executing host
            elapsed=elapsed,
        ))

    def record_outcome(self, worker: str, outcome: PointOutcome) -> dict:
        """Settle one successfully executed point (see :meth:`complete`)."""
        point_id = outcome.point_id
        with self._lock:
            self.leases.pop(point_id, None)
            duplicate = point_id in self.completed
            if not duplicate:
                self.completed.add(point_id)
                self.terminal.pop(point_id, None)
                self.events.put(("result", outcome))
            return {
                "ok": True,
                "duplicate": duplicate,
                "done": self._finished_locked(),
            }

    def fail(self, worker: str, point_id: str, kind: str,
             error: BaseException | str, digest: str | None = None
             ) -> dict:
        """Charge one failed attempt; decide retry or terminal.

        *error* and *digest* are as in :meth:`FailureTracker.record`.
        Only the current lease holder's report counts — a stale report from a host whose lease already
        expired (and was charged a crash attempt) is ignored rather
        than double-charged. Returns ``{"retry": bool, "failure":
        record|None}``; a non-``None`` failure record is the
        authoritative terminal record, which a reporting host writes
        into its shard store.
        """
        with self._lock:
            lease = self.leases.get(point_id)
            if lease is None or lease["worker"] != worker:
                return {"retry": False, "failure": None, "stale": True,
                        "done": self._finished_locked()}
            verdict = self._charge_locked(point_id, kind, error, digest)
            verdict["done"] = self._finished_locked()
            return verdict

    def heartbeat(self, worker: str) -> dict:
        """Renew every lease *worker* holds."""
        with self._lock:
            deadline = self._clock() + self.lease_timeout
            held = self._held_locked(worker)
            for point_id in held:
                self.leases[point_id]["deadline"] = deadline
            return {"renewed": len(held)}

    def release(self, worker: str) -> list[str]:
        """Requeue *worker*'s leases uncharged.

        For runs cut short through no fault of their own: bystanders
        of a pool recycled because another point hung, or points
        leased but never submitted to a pool that had broken.
        """
        with self._lock:
            held = self._held_locked(worker)
            for point_id in held:
                del self.leases[point_id]
                self._requeue_locked(point_id, 0.0)
            return held

    # ------------------------------------------------------------------
    # Expiry

    def expire_overdue(self, kind: str = "crash",
                       error: BaseException = _LEASE_CRASH) -> list[str]:
        """Charge every lease past its deadline one *kind* attempt.

        By default a host lease whose heartbeats stopped: a ``crash``
        with the fixed :data:`LEASE_CRASH_ERROR`. The process pool
        passes its ``timeout`` charge for a hung point.
        """
        with self._lock:
            now = self._clock()
            overdue = [point_id
                       for point_id, lease in self.leases.items()
                       if lease["deadline"] <= now]
            for point_id in overdue:
                self._charge_locked(point_id, kind, error)
            return overdue

    def expire_worker(self, worker: str) -> list[str]:
        """Charge *worker*'s leases one ``crash`` now (host known dead)."""
        with self._lock:
            held = self._held_locked(worker)
            for point_id in held:
                self._charge_locked(point_id, "crash", _LEASE_CRASH)
            return held

    def until_deadline(self) -> float:
        """Seconds until the earliest lease deadline (``inf``: none)."""
        with self._lock:
            earliest = min((lease["deadline"]
                            for lease in self.leases.values()),
                           default=math.inf)
            return earliest - self._clock()

    def _held_locked(self, worker: str) -> list[str]:
        return [point_id for point_id, lease in self.leases.items()
                if lease["worker"] == worker]

    def _requeue_locked(self, point_id: str, delay: float) -> None:
        heapq.heappush(self._ready, (
            self._clock() + delay, next(self._sequence), point_id,
        ))

    def _charge_locked(self, point_id: str, kind: str,
                       error: BaseException | str,
                       digest: str | None = None) -> dict:
        """Charge the attempt of a lease that just ended."""
        del self.leases[point_id]
        failure = self.tracker.record(self.points[point_id], kind, error,
                                      digest)
        if failure is None:
            # Budget remains: requeue after the policy's backoff (the
            # failed-attempt index is the count *before* this charge).
            attempt = self.tracker.attempts[point_id] - 1
            self._requeue_locked(point_id,
                                 self.tracker.policy.delay(attempt))
            return {"retry": True, "failure": None}
        record = failure.record()
        self.terminal[point_id] = record
        self.events.put(("failure", failure))
        return {"retry": False, "failure": record}

    # ------------------------------------------------------------------
    # Settlements and introspection

    def settle(self, on_result: Callable[[PointOutcome], None] | None,
               on_failure: Callable[[PointFailure], None] | None,
               timeout: float = 0.0) -> bool:
        """Hand emitted settlements to the callbacks, in order.

        Waits up to *timeout* seconds for the first one; returns
        whether anything settled.
        """
        settled = False
        while True:
            try:
                kind, value = self.events.get(not settled, timeout)
            except queue.Empty:
                return settled
            settled = True
            callback = on_result if kind == "result" else on_failure
            if callback is not None:
                callback(value)

    def _finished_locked(self) -> bool:
        return (len(self.completed) + len(self.terminal)
                >= len(self.points))

    @property
    def finished(self) -> bool:
        """Every point settled (completed or terminally quarantined)."""
        with self._lock:
            return self._finished_locked()

    def status(self) -> dict:
        """Progress counters for ``GET /status`` and ``--dry-run``."""
        with self._lock:
            settled = len(self.completed) + len(self.terminal)
            return {
                "total": len(self.points),
                "pending": len(self.points) - settled - len(self.leases),
                "leased": len(self.leases),
                "completed": len(self.completed),
                "quarantined": len(self.terminal),
                "done": self._finished_locked(),
            }
