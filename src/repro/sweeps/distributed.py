"""Distributed sweep execution over the HTTP work queue.

Three cooperating pieces, all reusing the existing sweep machinery:

* :class:`DistributedExecutor` — a drop-in
  :class:`~repro.sweeps.executors.SweepExecutor`: it serves the
  :class:`~repro.sweeps.resilience.QueueState` every executor leases
  from through an in-process
  :class:`~repro.sweeps.queue_daemon.SweepQueueDaemon`, launches
  ``repro-swarm sweep-work`` host subprocesses pointed at it, and
  settles what they report through the ordinary
  ``on_result``/``on_failure`` callbacks — so ``run_sweep(spec,
  workers=2)`` writes the exact same store as ``jobs=4`` or serial.
* :func:`sweep_work` — the host loop behind ``repro-swarm
  sweep-work``: lease a batch, run it through the *local* executor
  stack (:func:`~repro.sweeps.executors.make_executor` — a process
  pool when ``--jobs >= 2``, with the PR 3/6 shared-table publication
  building each unique topology once per machine), persist every
  settlement to a durable per-host **shard**
  :class:`~repro.sweeps.store.SweepStore`, report back, repeat until
  the queue says done.
* :func:`sweep_serve` — the standalone daemon behind ``repro-swarm
  sweep-serve`` for multi-machine runs where no single coordinator
  process wraps the workers.

Retry authority lives in the coordinator's scheduler — the same
object that charges attempts in a serial or process-pool run: hosts
run a **zero-retry** local policy seeded with each lease's global
failed-attempt count, so any local failure — exception, pool-worker
crash, watchdog timeout — quarantines locally with the
globally-correct attempt number and is reported for the coordinator
to arbitrate: requeue (possibly to another host) while budget
remains, else terminal. The authoritative terminal record comes back
in the ``/fail`` response and is what the host writes to its shard,
which is why merging the shards
(:meth:`~repro.sweeps.store.SweepStore.merge`) reproduces the
coordinator's store byte-for-byte. The coordinator and
:func:`sweep_serve` share one settle loop.

Crash ordering invariant: a host saves its shard **before** POSTing
``/complete``. If it dies between the two, the daemon re-leases the
point and the deterministic re-run produces an identical record —
the duplicate completion dedups at the daemon and the shard merge
tolerates the overlap (identical records union cleanly).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
import warnings
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .._validation import require_positive
from ..backends.config import FastSimulationConfig
from ..errors import ConfigurationError, SweepExecutionError
from .chaos import HOST_PID_ENV
from .executors import SweepExecutor, make_executor
from .queue_daemon import SweepQueueDaemon
from .resilience import PointFailure, QueueState, RetryPolicy
from .spec import SweepPoint, SweepSpec
from .store import SweepStore
from .worker import PointOutcome, point_from_payload

__all__ = ["DistributedExecutor", "sweep_serve", "sweep_work"]


# ----------------------------------------------------------------------
# HTTP client helpers (stdlib urllib; no dependencies)


def _request(url: str, payload: Mapping | None = None, *,
             timeout: float = 10.0, retries: int = 5,
             backoff: float = 0.2) -> dict:
    """One JSON request (GET, or POST when *payload* is given).

    Connection-level failures retry with linear backoff — the daemon
    may still be binding, or a threaded accept may be momentarily
    behind. HTTP-level errors (4xx/5xx) are protocol bugs and raise
    immediately.
    """
    data = None if payload is None else json.dumps(payload).encode()
    last: Exception | None = None
    for attempt in range(max(1, retries)):
        try:
            request = urllib.request.Request(
                url, data=data,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=timeout
                                        ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            detail = error.read().decode(errors="replace")[:200]
            raise SweepExecutionError(
                f"work queue rejected {url}: HTTP {error.code} {detail}"
            ) from None
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                OSError, json.JSONDecodeError) as error:
            last = error
            time.sleep(backoff * (attempt + 1))
    raise SweepExecutionError(
        f"work queue unreachable at {url} after {retries} attempt(s): "
        f"{last}"
    )


# ----------------------------------------------------------------------
# Host side: the sweep-work loop


class _Heartbeat(threading.Thread):
    """Renews this host's leases so a live-but-slow point never expires."""

    def __init__(self, queue_url: str, worker_id: str,
                 interval: float) -> None:
        super().__init__(name=f"heartbeat-{worker_id}", daemon=True)
        self.queue_url = queue_url
        self.worker_id = worker_id
        self.interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                _request(f"{self.queue_url}/heartbeat",
                         {"worker": self.worker_id}, retries=1)
            except SweepExecutionError:
                # The daemon is gone or busy; the main loop will find
                # out on its next lease. A missed beat is harmless as
                # long as one lands within the lease timeout.
                pass

    def stop(self) -> None:
        self._stop.set()


def sweep_work(queue_url: str, *, store_path: Path,
               worker_id: str | None = None, jobs: int = 1,
               cap_jobs: bool = False,
               point_timeout: float | None = None,
               max_pool_restarts: int = 8,
               poll_interval: float = 0.5) -> int:
    """Run the pull-based host loop against a sweep work queue.

    Fetches the spec from the daemon, opens (resuming) the durable
    shard store at *store_path*, then leases batches of ``jobs``
    points and runs each batch through the ordinary local executor
    stack until the queue reports done; with ``jobs > 1`` one process
    pool serves every batch of the session. Exports
    :data:`~repro.sweeps.chaos.HOST_PID_ENV` first, so ``kill-host``
    chaos faults fired in this host's pool children can find it.

    Returns a process exit code: 0 when the queue finished (this
    host's leased points all settled), nonzero when the queue became
    unreachable.
    """
    queue_url = queue_url.rstrip("/")
    worker_id = worker_id or f"host-{os.getpid()}"
    # Exported before any pool spawn so children inherit it.
    os.environ[HOST_PID_ENV] = str(os.getpid())

    handshake = _request(f"{queue_url}/spec", retries=40, backoff=0.25)
    spec = SweepSpec.from_json(handshake["spec"])
    lease_timeout = float(handshake.get("lease_timeout", 300.0))
    base_points = spec.points()

    store = SweepStore.open(Path(store_path), spec, resume=True)
    store.save()  # an idle host still leaves a valid (empty) shard

    executor = make_executor(
        jobs,
        cap_jobs=cap_jobs,
        # Zero local retries: the daemon owns the budget. Any local
        # failure quarantines at the leased (global) attempt number
        # and is reported for the daemon to arbitrate.
        retry_policy=RetryPolicy(max_retries=0, backoff_base=0.0),
        keep_going=True,
        point_timeout=point_timeout,
        max_pool_restarts=max_pool_restarts,
    )

    heartbeat = _Heartbeat(
        queue_url, worker_id,
        interval=min(30.0, max(0.05, lease_timeout / 4.0)),
    )
    heartbeat.start()

    # /complete and /fail responses carry "done"; remembering it here
    # lets the host that settles the queue's final point exit without
    # racing one more /lease poll against the coordinator tearing the
    # daemon down.
    queue_done = threading.Event()

    def on_result(outcome: PointOutcome) -> None:
        from .engine import outcome_record

        record = outcome_record(outcome)
        # Shard first, then report: if this host dies in between, the
        # daemon re-leases and the deterministic re-run settles with
        # an identical record — never a lost or torn result.
        store.add(record)
        store.save()
        response = _request(f"{queue_url}/complete", {
            "worker": worker_id,
            "record": record,
            "index": outcome.index,
            "elapsed": outcome.elapsed,
        }, retries=10)
        if response.get("done"):
            queue_done.set()

    def on_failure(failure: PointFailure) -> None:
        verdict = _request(f"{queue_url}/fail", {
            "worker": worker_id,
            "point_id": failure.point_id,
            "kind": failure.kind,
            "error": failure.error,
            "digest": failure.digest,
        }, retries=10)
        terminal = verdict.get("failure")
        if terminal is not None:
            # The daemon's record is authoritative (globally-numbered
            # attempts); writing it verbatim keeps this shard
            # merge-identical to the coordinator's store.
            store.add_failure(terminal)
            store.save()
        if verdict.get("done"):
            queue_done.set()

    try:
        with ExitStack() as stack:
            if jobs > 1:
                from ..perf.shared import pinned_tables

                # One eager build + publication per topology for the
                # whole host session; per-batch executor publication
                # then only bumps refcounts on the pinned segments.
                stack.enter_context(pinned_tables(spec.base, base_points))
                # One worker pool for every lease batch of the session.
                stack.enter_context(executor)
            while True:
                if queue_done.is_set():
                    return 0
                response = _request(
                    f"{queue_url}/lease",
                    {"worker": worker_id, "count": jobs},
                    retries=10,
                )
                leased = response.get("points", [])
                if leased:
                    batch = [point_from_payload(entry["point"])
                             for entry in leased]
                    attempts = {
                        point.point_id: int(entry["attempt"])
                        for point, entry in zip(batch, leased)
                    }
                    executor.run(spec.base, batch, on_result, on_failure,
                                 attempts=attempts)
                elif response.get("done"):
                    return 0
                else:
                    time.sleep(response.get("retry_after")
                               or poll_interval)
    except SweepExecutionError as error:
        print(f"sweep-work {worker_id}: {error}", file=sys.stderr)
        return 3
    finally:
        heartbeat.stop()


# ----------------------------------------------------------------------
# Coordinator side


def _settle_until_done(state: QueueState,
                       settle: Callable[..., bool],
                       idle: Callable[[], None]) -> None:
    """Settle *state*'s points as the hosts report them, until all have.

    Whenever nothing settles for a quarter second, the leases of
    hosts that stopped heartbeating are expired and *idle* runs.
    """
    while not state.finished:
        if not settle(0.25):
            state.expire_overdue()
            idle()
    settle()  # emitted as the last point settled


class DistributedExecutor(SweepExecutor):
    """Fan sweep points out over host subprocesses via the work queue.

    Satisfies the same :class:`~repro.sweeps.executors.SweepExecutor`
    protocol as the serial and process executors — ``run`` blocks,
    streams settlements through the callbacks, and returns outcomes in
    canonical order — so :func:`~repro.sweeps.engine.run_sweep` and
    the CLI need nothing beyond new flags. Because it must serve the
    *full* spec to hosts over ``GET /spec`` (hosts validate shard
    stores against it), it is constructed with the spec, via
    ``make_executor(jobs, workers=..., spec=...)``.

    Worker hosts here are localhost subprocesses (the useful
    parallelism unit for one machine with many cores, and the test
    harness for the protocol); pointing real remote machines at the
    same queue is ``repro-swarm sweep-serve`` plus ``sweep-work
    --queue http://coordinator:port`` — the protocol is identical.

    A host subprocess that dies (crash, OOM, ``kill-host`` chaos
    fault) is detected by the coordinator, its leases are expired
    immediately — charging each in-flight point exactly one ``crash``
    attempt, like a lost pool worker — and the host is relaunched
    against the same shard store (resuming it) up to
    ``max_pool_restarts`` times across the run.
    """

    def __init__(self, workers: int, *, spec: SweepSpec, jobs: int = 1,
                 cap_jobs: bool = False,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = True,
                 point_timeout: float | None = None,
                 max_pool_restarts: int = 8,
                 lease_timeout: float = 300.0,
                 host: str = "127.0.0.1", port: int = 0,
                 shard_dir: Path | None = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.workers = workers
        self.spec = spec
        self.jobs = jobs
        self.cap_jobs = cap_jobs
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going
        self.point_timeout = point_timeout
        self.max_pool_restarts = max_pool_restarts
        self.lease_timeout = lease_timeout
        self.host = host
        self.port = port
        self.shard_dir = None if shard_dir is None else Path(shard_dir)

    # ------------------------------------------------------------------
    # Host subprocess management

    def _host_command(self, url: str, worker_id: str,
                      shard: Path) -> list[str]:
        command = [
            sys.executable, "-m", "repro.cli", "sweep-work",
            "--queue", url,
            "--store", str(shard),
            "--worker-id", worker_id,
            "--jobs", str(self.jobs),
            "--max-pool-restarts", str(self.max_pool_restarts),
        ]
        if self.cap_jobs:
            command.append("--cap-jobs")
        if self.point_timeout is not None:
            command += ["--point-timeout", str(self.point_timeout)]
        return command

    @staticmethod
    def _host_environment() -> dict[str, str]:
        """The subprocess env, with :mod:`repro` importable for sure.

        Host processes inherit everything else — including
        ``REPRO_FAULT_PLAN`` and instrumentation variables like
        ``REPRO_TABLE_BUILD_LOG`` — which is how chaos plans and build
        accounting reach the hosts' own pool children.
        """
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        if existing:
            if package_root not in existing.split(os.pathsep):
                env["PYTHONPATH"] = os.pathsep.join(
                    [package_root, existing]
                )
        else:
            env["PYTHONPATH"] = package_root
        return env

    @staticmethod
    def _terminate_hosts(hosts: list[dict]) -> None:
        for entry in hosts:
            process = entry["process"]
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 5.0
        for entry in hosts:
            process = entry["process"]
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # Execution

    def _drive(self, base: FastSimulationConfig,
               points: Sequence[SweepPoint], state: QueueState,
               settle: Callable[..., bool]) -> None:
        if base != self.spec.base:
            raise ConfigurationError(
                "the distributed executor serves its spec to worker "
                "hosts; run() must be called with that spec's base "
                "config"
            )
        daemon = SweepQueueDaemon(state, host=self.host,
                                  port=self.port).start()

        temp_dir: tempfile.TemporaryDirectory | None = None
        if self.shard_dir is None:
            temp_dir = tempfile.TemporaryDirectory(prefix="repro-shards-")
            shard_dir = Path(temp_dir.name)
        else:
            shard_dir = self.shard_dir
            shard_dir.mkdir(parents=True, exist_ok=True)

        environment = self._host_environment()
        hosts: list[dict] = []
        restarts = 0

        def idle() -> None:
            nonlocal restarts
            restarts = self._reap_hosts(hosts, state, restarts)
            if (not state.finished
                    and all(entry["process"].poll() is not None
                            for entry in hosts)
                    and all(entry["exhausted"] or
                            entry["process"].returncode == 0
                            for entry in hosts)):
                raise SweepExecutionError(
                    "every sweep-work host exited with work still "
                    "pending; see the hosts' stderr above (their "
                    "shard stores hold all completed points)"
                )

        try:
            for index in range(min(self.workers, len(points))):
                worker_id = f"host-{index:02d}"
                shard = shard_dir / f"{worker_id}.json"
                command = self._host_command(daemon.url, worker_id, shard)
                hosts.append({
                    "id": worker_id,
                    "command": command,
                    "process": subprocess.Popen(command, env=environment),
                    "exhausted": False,
                })
            _settle_until_done(state, settle, idle)
            # Hosts exit by themselves on their next (done) lease poll.
            for entry in hosts:
                try:
                    entry["process"].wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        finally:
            self._terminate_hosts(hosts)
            daemon.close()
            if temp_dir is not None:
                temp_dir.cleanup()

    def _reap_hosts(self, hosts: list[dict], state: QueueState,
                    restarts: int) -> int:
        """Detect dead host subprocesses; expire their leases; relaunch.

        A clean exit (code 0) is a host that saw ``done`` — or was
        done early — and needs nothing. Anything else charges its
        in-flight leases one ``crash`` attempt immediately (no need to
        wait out the lease timeout: the coordinator *knows* the host
        is dead) and relaunches against the same shard store, within
        the shared ``max_pool_restarts`` budget.
        """
        for entry in hosts:
            process = entry["process"]
            code = process.poll()
            if code is None or entry.get("reaped") == process.pid:
                continue
            entry["reaped"] = process.pid
            expired = state.expire_worker(entry["id"])
            if code == 0 or state.finished or entry["exhausted"]:
                continue
            restarts += 1
            if restarts > self.max_pool_restarts:
                entry["exhausted"] = True
                warnings.warn(
                    f"sweep-work host {entry['id']} died (exit {code}) "
                    f"but the restart budget "
                    f"(max_pool_restarts={self.max_pool_restarts}) is "
                    f"exhausted; its work is re-leased to surviving "
                    f"hosts",
                    RuntimeWarning,
                )
                continue
            warnings.warn(
                f"sweep-work host {entry['id']} died (exit {code}, "
                f"{len(expired)} leased point(s) re-queued); "
                f"relaunching (restart {restarts}/"
                f"{self.max_pool_restarts})",
                RuntimeWarning,
            )
            entry["process"] = subprocess.Popen(
                entry["command"], env=self._host_environment()
            )
            entry.pop("reaped", None)
        return restarts


# ----------------------------------------------------------------------
# Standalone daemon (multi-machine front door)


def sweep_serve(spec: SweepSpec, *, host: str = "127.0.0.1",
                port: int = 0, lease_timeout: float = 300.0,
                max_retries: int = 2, retry_backoff: float = 0.05,
                store_path: Path | None = None, resume: bool = True,
                salvage: bool = False,
                status_interval: float = 10.0,
                linger: float = 2.0) -> int:
    """Serve *spec*'s points over HTTP until every one settles.

    The standalone form of the coordinator for multi-machine sweeps:
    start this on one machine, point ``repro-swarm sweep-work --queue
    http://host:port`` at it from the others. With *store_path* the
    daemon maintains the merged main store incrementally (each
    settlement is persisted as it arrives, resumable like any sweep
    store); without it, the per-host shard stores plus ``repro-swarm
    sweep --merge-stores`` reconstruct the same bytes afterwards.

    After the last point settles the daemon lingers *linger* seconds
    before closing, so idle hosts' next ``/lease`` poll observes
    ``done`` and exits 0 instead of hitting a closed socket. (The
    host that settles the final point needs no grace: ``/complete``
    and ``/fail`` responses carry ``done`` directly.)

    Returns the number of terminally quarantined points (0 = clean).
    """
    from .engine import outcome_record

    retry_policy = RetryPolicy(max_retries=max_retries,
                               backoff_base=retry_backoff)
    require_positive(lease_timeout, "lease_timeout")
    points = spec.points()
    store = None
    completed: set[str] = set()
    if store_path is not None:
        store = SweepStore.open(Path(store_path), spec, resume=resume,
                                salvage=salvage)
        completed = store.completed_ids()
    pending = [point for point in points
               if point.point_id not in completed]
    if store is not None:
        for point in pending:
            store.failures.pop(point.point_id, None)
        store.save()

    state = QueueState(
        spec, pending,
        retry_policy=retry_policy, lease_timeout=lease_timeout,
    )
    daemon = SweepQueueDaemon(state, host=host, port=port).start()
    print(f"sweep queue serving {len(pending)} pending point(s) "
          f"(of {len(points)}) at {daemon.url}")
    quarantined = 0
    next_status = time.monotonic() + status_interval

    def persist(outcome: PointOutcome) -> None:
        if store is not None:
            store.add(outcome_record(outcome))
            store.save()

    def quarantine(failure: PointFailure) -> None:
        nonlocal quarantined
        quarantined += 1
        print(f"quarantined: {failure.describe()}", file=sys.stderr)
        if store is not None:
            store.add_failure(failure.record())
            store.save()

    def report() -> None:
        nonlocal next_status
        now = time.monotonic()
        if now >= next_status:
            counts = state.status()
            print(
                f"status: {counts['completed']}/{counts['total']} "
                f"completed, {counts['leased']} leased, "
                f"{counts['pending']} pending, "
                f"{counts['quarantined']} quarantined",
                file=sys.stderr,
            )
            next_status = now + status_interval

    try:
        _settle_until_done(
            state, functools.partial(state.settle, persist, quarantine),
            report,
        )
        time.sleep(max(0.0, linger))
    except KeyboardInterrupt:
        print("sweep-serve interrupted; completed points are persisted",
              file=sys.stderr)
        return 130
    finally:
        daemon.close()
    print(f"sweep queue drained: {len(state.completed)} completed, "
          f"{quarantined} quarantined")
    return quarantined
