"""HTTP work queue for distributed sweeps.

The distributed executor (see :mod:`repro.sweeps.distributed`) shards
a sweep's points across *hosts* by pulling, not pushing: this tiny
stdlib-only HTTP daemon serves a
:class:`~repro.sweeps.resilience.QueueState` — the same scheduler the
serial and process-pool executors lease from — and **leases** batches
to whichever ``repro-swarm sweep-work`` host asks first, so fast hosts
naturally take more points and a dead host's work flows to the
survivors. The scheduler is the single authority on retry budgets:
every lease carries the point's global failed-attempt count, every
failure report charges exactly one attempt, and a lease that expires
— its host vanished or stopped heartbeating — is charged exactly one
``crash`` attempt with a fixed message and digest. One object charges
every attempt, so quarantine records are byte-identical whether a
sweep ran serially, in one process pool, or across hosts.

:class:`SweepQueueDaemon` wraps the state in a
:class:`~http.server.ThreadingHTTPServer` speaking a small JSON
protocol (each ``/lease`` first expires overdue leases):

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

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from .resilience import QueueState

__all__ = ["SweepQueueDaemon"]


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
                self.state.expire_overdue()
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
    :attr:`state` — the coordinating process settles its events in
    its own loop rather than talking HTTP to itself.
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
