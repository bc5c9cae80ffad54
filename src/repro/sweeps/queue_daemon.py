"""HTTP work queue for distributed sweeps.

The distributed executor (see :mod:`repro.sweeps.distributed`) shards
a sweep's points across *hosts* by pulling, not pushing: a tiny
stdlib-only HTTP daemon owns the set of pending ``point_id``'s and
**leases** batches to whichever ``repro-swarm sweep-work`` host asks
first, so fast hosts naturally take more points and a dead host's
work flows to the survivors. The daemon is the single authority on
retry budgets: every lease carries the point's global failed-attempt
count, every failure report charges exactly one attempt against the
same deterministic :class:`~repro.sweeps.resilience.RetryPolicy` the
local executors use, and a lease that expires — its host vanished or
stopped heartbeating — is charged exactly one ``crash`` attempt with
a fixed message and digest, mirroring how the process executor
charges points lost to a dead pool worker. Quarantine records are
therefore byte-identical whether a sweep ran serially, in one
process pool, or across hosts.

:class:`QueueState` is the pure, lock-guarded state machine (directly
unit-testable, no sockets); :class:`SweepQueueDaemon` wraps it in a
:class:`~http.server.ThreadingHTTPServer` speaking a small JSON
protocol:

====================  ====================================================
``GET /spec``         the full :class:`~repro.sweeps.spec.SweepSpec`
                      (JSON) plus the lease timeout — everything a host
                      needs to run points and write its shard store
``GET /status``       progress counters (total/pending/leased/...)
``POST /lease``       ``{"worker", "count"}`` -> point payloads with
                      their global attempt numbers, or ``done`` /
                      ``retry_after``
``POST /complete``    ``{"worker", "record", "index", "elapsed"}`` —
                      idempotent; duplicate completions of a re-leased
                      point carry byte-identical records and dedup here
``POST /fail``        ``{"worker", "point_id", "kind", "error",
                      "digest"}`` -> retry verdict, plus the daemon's
                      authoritative terminal failure record on
                      quarantine (the host writes *that* to its shard,
                      so shards merge identically to the main store)
``POST /heartbeat``   ``{"worker"}`` — renews every lease the worker
                      holds; a host whose heartbeats stop is presumed
                      dead once its leases pass the timeout
====================  ====================================================

The daemon binds loopback by default and speaks plaintext HTTP with
no authentication: it is a work-distribution mechanism for hosts you
already trust (a lab cluster, CI), not a hardened service — anyone
who can reach the port can take work and submit results.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from .resilience import FailureTracker, PointFailure, RetryPolicy, \
    failure_digest
from .spec import SweepPoint, SweepSpec
from .worker import point_payload

__all__ = [
    "LEASE_CRASH_ERROR",
    "LEASE_CRASH_DIGEST",
    "QueueState",
    "SweepQueueDaemon",
]


class _HostVanished(RuntimeError):
    """Fixed-message stand-in exception for an expired lease.

    Never raised — it exists so the expiry charge has a deterministic
    ``Type: message`` rendering and :func:`failure_digest`, exactly
    like :class:`~repro.sweeps.executors.WorkerCrash` gives in-flight
    points lost to a dead pool worker.
    """


_LEASE_CRASH = _HostVanished(
    "worker host vanished while this point was leased"
)

#: The error string charged to a point whose lease expired.
LEASE_CRASH_ERROR = f"{type(_LEASE_CRASH).__name__}: {_LEASE_CRASH}"

#: Its deterministic digest (type + message only, machine-independent).
LEASE_CRASH_DIGEST = failure_digest(_LEASE_CRASH)


class QueueState:
    """The work queue's state machine: pending / leased / settled.

    All public methods are lock-guarded (the HTTP server is threaded)
    and side-effect-free beyond this object: settlements are emitted
    into :attr:`events` — ``("result", record, index, elapsed)`` and
    ``("failure", PointFailure)`` tuples the coordinator drains to
    feed its store callbacks.

    The queue, not any host, owns retry accounting: ``attempts`` may
    seed prior failed-attempt counts (protocol parity with the local
    executors' ``run(..., attempts=...)``), each lease carries the
    point's current count, and failure reports / lease expiries charge
    attempts here. Hosts run their local executor with a zero-retry
    policy seeded from the leased count, so a local quarantine is one
    globally-numbered attempt — and terminal records come back *from*
    the daemon (see :meth:`fail`), keeping shard stores byte-identical
    to the coordinator's.
    """

    def __init__(self, spec: SweepSpec, points: Sequence[SweepPoint], *,
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
        self.completed: dict[str, dict] = {}
        self.terminal: dict[str, dict] = {}
        self.events: queue.Queue = queue.Queue()

    # ------------------------------------------------------------------
    # Protocol operations

    def lease(self, worker: str, count: int) -> dict:
        """Hand *worker* up to *count* ready points.

        Returns ``{"points": [{"point": payload, "attempt": n}, ...],
        "done": bool, "retry_after": seconds|None}`` — ``done`` tells
        an idle host to exit, ``retry_after`` when to poll again while
        retries back off or other hosts' leases are still out.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            now = self._clock()
            self._expire_overdue_locked(now)
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
            retry_after = None
            if not leased and not self._finished_locked():
                if self._ready:
                    retry_after = max(0.05, self._ready[0][0] - now)
                else:
                    retry_after = 0.5  # other hosts' leases are out
            return {
                "points": leased,
                "done": self._finished_locked(),
                "retry_after": retry_after,
            }

    def complete(self, worker: str, record: Mapping, index: int,
                 elapsed: float) -> dict:
        """Settle one successfully executed point.

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
        record = dict(record)
        point_id = record["point_id"]
        with self._lock:
            if point_id not in self.points:
                raise KeyError(f"unknown point {point_id!r}")
            self.leases.pop(point_id, None)
            duplicate = point_id in self.completed
            if not duplicate:
                self.completed[point_id] = record
                self.terminal.pop(point_id, None)
                self.events.put(
                    ("result", record, int(index), elapsed)
                )
            return {
                "ok": True,
                "duplicate": duplicate,
                "done": self._finished_locked(),
            }

    def fail(self, worker: str, point_id: str, kind: str, error: str,
             digest: str) -> dict:
        """Charge one reported failed attempt; decide retry or terminal.

        Only the current lease holder's report counts — a stale report
        from a host whose lease already expired (and was charged a
        crash attempt) is ignored rather than double-charged. Returns
        ``{"retry": bool, "failure": record|None}``; a non-``None``
        failure record is the daemon's authoritative terminal record,
        which the reporting host writes into its shard store.
        """
        with self._lock:
            lease = self.leases.get(point_id)
            if lease is None or lease["worker"] != worker:
                return {"retry": False, "failure": None, "stale": True,
                        "done": self._finished_locked()}
            del self.leases[point_id]
            verdict = self._charge_locked(point_id, kind, error, digest)
            verdict["done"] = self._finished_locked()
            return verdict

    def heartbeat(self, worker: str) -> dict:
        """Renew every lease *worker* holds."""
        with self._lock:
            deadline = self._clock() + self.lease_timeout
            renewed = 0
            for lease in self.leases.values():
                if lease["worker"] == worker:
                    lease["deadline"] = deadline
                    renewed += 1
            return {"renewed": renewed}

    # ------------------------------------------------------------------
    # Expiry

    def expire_overdue(self) -> list[str]:
        """Expire every lease past its deadline (heartbeats stopped)."""
        with self._lock:
            return self._expire_overdue_locked(self._clock())

    def expire_worker(self, worker: str) -> list[str]:
        """Expire *worker*'s leases now (its process is known dead)."""
        with self._lock:
            overdue = [point_id
                       for point_id, lease in self.leases.items()
                       if lease["worker"] == worker]
            for point_id in overdue:
                self._expire_locked(point_id)
            return overdue

    def _expire_overdue_locked(self, now: float) -> list[str]:
        overdue = [point_id
                   for point_id, lease in self.leases.items()
                   if lease["deadline"] <= now]
        for point_id in overdue:
            self._expire_locked(point_id)
        return overdue

    def _expire_locked(self, point_id: str) -> None:
        """Charge one ``crash`` attempt for a vanished host's lease."""
        self.leases.pop(point_id, None)
        if point_id in self.completed:
            return  # settled by a duplicate completion meanwhile
        self._charge_locked(
            point_id, "crash", LEASE_CRASH_ERROR, LEASE_CRASH_DIGEST
        )

    def _charge_locked(self, point_id: str, kind: str, error: str,
                       digest: str) -> dict:
        point = self.points[point_id]
        failure = self.tracker.record_reported(
            point, kind, error=error, digest=digest
        )
        if failure is None:
            # Budget remains: requeue after the policy's backoff (the
            # failed-attempt index is the count *before* this charge).
            attempt = self.tracker.attempts[point_id] - 1
            delay = self.tracker.policy.delay(attempt)
            heapq.heappush(self._ready, (
                self._clock() + delay, next(self._sequence), point_id,
            ))
            return {"retry": True, "failure": None}
        record = failure.record()
        self.terminal[point_id] = record
        self.events.put(("failure", failure))
        return {"retry": False, "failure": record}

    # ------------------------------------------------------------------
    # Introspection

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


def _json_int(body: Mapping, key: str, default: int | None = None) -> int:
    """*key* of a request body, which must be a JSON integer.

    Nothing is coerced: ``true``, ``2.7`` and ``"3"`` are refused.
    """
    value = body[key] if default is None else body.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _json_number(body: Mapping, key: str) -> float:
    """*key* of a request body, which must be a JSON number (not bool)."""
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


class _QueueHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter for a :class:`QueueState`."""

    #: Quiet by default: one log line per lease/heartbeat would drown
    #: real output. The daemon's owner reads /status instead.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def state(self) -> QueueState:
        return self.server.queue_state  # type: ignore[attr-defined]

    def _reply(self, payload: Mapping, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise ValueError(f"negative Content-Length {length}")
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/spec":
            self._reply({
                "spec": self.state.spec.to_json(),
                "lease_timeout": self.state.lease_timeout,
            })
        elif self.path == "/status":
            self._reply(self.state.status())
        else:
            self._reply({"error": f"unknown path {self.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            body = self._body()
            if self.path == "/lease":
                self._reply(self.state.lease(
                    str(body["worker"]), _json_int(body, "count", 1)
                ))
            elif self.path == "/complete":
                self._reply(self.state.complete(
                    str(body["worker"]), body["record"],
                    _json_int(body, "index"), _json_number(body, "elapsed"),
                ))
            elif self.path == "/fail":
                self._reply(self.state.fail(
                    str(body["worker"]), str(body["point_id"]),
                    str(body["kind"]), str(body["error"]),
                    str(body["digest"]),
                ))
            elif self.path == "/heartbeat":
                self._reply(self.state.heartbeat(str(body["worker"])))
            else:
                self._reply({"error": f"unknown path {self.path}"}, 404)
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as error:
            self._reply({"error": f"bad request: {error!r}"}, 400)


class SweepQueueDaemon:
    """A :class:`QueueState` served over loopback HTTP.

    Binds on construction (so :attr:`url` is immediately valid, with
    the OS-assigned port when ``port=0``), serves from a background
    thread after :meth:`start`, and tears the socket down in
    :meth:`close`. The state machine stays directly accessible via
    :attr:`state` — the coordinating process drains
    ``state.events`` in its own loop rather than talking HTTP to
    itself.
    """

    def __init__(self, state: QueueState, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.state = state
        self._server = ThreadingHTTPServer((host, port), _QueueHandler)
        self._server.daemon_threads = True
        self._server.queue_state = state  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "SweepQueueDaemon":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="sweep-queue-daemon",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
