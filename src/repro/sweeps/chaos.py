"""Deterministic fault injection for sweep workers.

Every recovery path in :mod:`repro.sweeps.executors` — retry on
exception, pool rebuild after a dead worker, watchdog timeout on a
hung point — is exercised in tests and CI by *real* subprocess
misbehavior, injected here. A fault plan is a small JSON document::

    {"faults": [
      {"point_id": "fast|bucket_size=4|r0", "attempt": 0,
       "kind": "exception", "message": "injected"},
      {"point_id": "fast|bucket_size=4|r1", "attempt": 0,
       "kind": "crash"},
      {"point_id": "fast|bucket_size=8|r0", "attempt": 0,
       "kind": "hang", "seconds": 60.0}
    ]}

keyed by ``(point_id, attempt)``: the fault fires only on that exact
attempt of that exact point, so "crash on the first try, succeed on
the retry" is expressible — and a faulted-but-recovered sweep is
deterministically byte-identical to a fault-free run, which is the
acceptance oracle the chaos CI step pins with ``cmp``.

Plans reach workers through the ``REPRO_FAULT_PLAN`` environment
variable (a path; spawn children inherit the parent's environment),
set by ``repro-swarm sweep --fault-plan file.json`` or directly by
tests. :func:`maybe_inject` is called by
:func:`~repro.sweeps.worker.execute_point` before any real work.

Fault kinds:

``exception``
    raise :class:`InjectedFault` (picklable; retried like any worker
    exception).
``crash``
    ``os._exit(70)`` — the interpreter dies without cleanup, exactly
    like a segfault; the parent sees ``BrokenProcessPool``.
``kill``
    ``SIGKILL`` to the worker's own pid — indistinguishable from the
    OOM killer.
``hang``
    sleep for ``seconds`` (default far beyond any sane
    ``--point-timeout``), tripping the parent's watchdog.

``crash``/``kill``/``hang`` only fire inside a spawned worker
(``multiprocessing.parent_process()`` is not ``None``): injected into
a serial in-process run they would take the whole sweep down — or
hang it with nobody left to watch the clock — so there they warn and
skip instead. ``exception`` faults fire everywhere.

The distributed executor adds ``kill-host``: SIGKILL the whole
``repro-swarm sweep-work`` *host* process (found via the
``REPRO_SWEEP_HOST_PID`` environment variable every host exports to
itself and its pool children), simulating a machine vanishing
mid-point. The work-queue daemon sees the lease die, charges the
point exactly one ``crash`` attempt, and re-leases it to a surviving
host. Outside a sweep-work host the kind warns and skips, like the
other fatal kinds.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .._files import read_json
from .._validation import is_finite_number
from ..errors import ConfigurationError

__all__ = [
    "FAULT_PLAN_ENV",
    "HOST_PID_ENV",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "active_fault_plan",
    "maybe_inject",
]

#: Environment variable carrying the fault-plan file path; inherited
#: by spawn workers, read lazily (and mtime-cached) per process.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Set by every ``repro-swarm sweep-work`` host to its own pid (and
#: inherited by its spawned pool children), so a ``kill-host`` fault
#: can find the host process to SIGKILL from wherever it fires.
HOST_PID_ENV = "REPRO_SWEEP_HOST_PID"

FAULT_KINDS = ("exception", "crash", "kill", "hang", "kill-host")

#: Exit status used by ``crash`` faults — distinctive in process
#: tables but never observed by the parent as a status (the pool only
#: reports the broken pipe).
CRASH_EXIT_CODE = 70

#: Default hang duration: long enough that any reasonable
#: ``--point-timeout`` fires first, short enough that a watchdog-less
#: test run eventually frees its worker.
DEFAULT_HANG_SECONDS = 600.0


class InjectedFault(RuntimeError):
    """The exception raised by ``exception``-kind faults (picklable)."""


@dataclass(frozen=True)
class Fault:
    """One injected fault, keyed by the point and 0-based attempt."""

    point_id: str
    attempt: int
    kind: str
    message: str = "injected fault"
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.attempt < 0:
            raise ConfigurationError(
                f"fault attempt must be >= 0, got {self.attempt}"
            )
        if not self.seconds > 0:
            raise ConfigurationError(
                f"hang seconds must be > 0, got {self.seconds}"
            )

    @classmethod
    def from_json(cls, payload: Mapping) -> "Fault":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a fault plan entry is an object, got {payload!r}"
            )
        unknown = set(payload) - {"point_id", "attempt", "kind",
                                  "message", "seconds"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan key(s) {sorted(unknown)}"
            )
        try:
            point_id, kind = payload["point_id"], payload["kind"]
        except KeyError as error:
            raise ConfigurationError(
                f"fault plan entry is missing required key {error}"
            ) from None
        attempt = payload.get("attempt", 0)
        message = payload.get("message", "injected fault")
        seconds = payload.get("seconds", DEFAULT_HANG_SECONDS)
        # JSON types are taken as written, never coerced: a quoted
        # attempt or a numeric point id is a plan that names the wrong
        # thing, and NaN would slip past every range check.
        for key, value, ok in (
            ("point_id", point_id, isinstance(point_id, str)),
            ("kind", kind, isinstance(kind, str)),
            ("message", message, isinstance(message, str)),
            ("attempt", attempt,
             isinstance(attempt, int) and not isinstance(attempt, bool)),
            ("seconds", seconds, is_finite_number(seconds)),
        ):
            if not ok:
                raise ConfigurationError(
                    f"fault plan entry has a bad {key} {value!r}"
                )
        return cls(point_id=point_id, attempt=attempt, kind=kind,
                   message=message, seconds=float(seconds))


class FaultPlan:
    """An immutable set of faults, looked up by ``(point_id, attempt)``."""

    def __init__(self, faults: tuple[Fault, ...] = ()) -> None:
        self._faults: dict[tuple[str, int], Fault] = {}
        for fault in faults:
            key = (fault.point_id, fault.attempt)
            if key in self._faults:
                raise ConfigurationError(
                    f"duplicate fault for point {fault.point_id!r} "
                    f"attempt {fault.attempt}"
                )
            self._faults[key] = fault

    def lookup(self, point_id: str, attempt: int) -> Fault | None:
        return self._faults.get((point_id, attempt))

    def __len__(self) -> int:
        return len(self._faults)

    @classmethod
    def from_json(cls, payload: Mapping) -> "FaultPlan":
        if not (isinstance(payload, Mapping)
                and isinstance(payload.get("faults"), list)):
            raise ConfigurationError(
                "a fault plan is an object with a 'faults' array"
            )
        return cls(tuple(
            Fault.from_json(entry) for entry in payload["faults"]
        ))

    @classmethod
    def load(cls, path: Path) -> "FaultPlan":
        payload = read_json(path, "fault plan")
        try:
            return cls.from_json(payload)
        except ConfigurationError as error:
            raise ConfigurationError(
                f"cannot read fault plan {path}: {error}"
            ) from None


#: Per-process plan cache: (path, mtime_ns) -> FaultPlan. Workers are
#: short-lived spawns, so this only saves re-parsing across the many
#: points one worker executes.
_PLAN_CACHE: dict[tuple[str, int], FaultPlan] = {}


def active_fault_plan() -> FaultPlan | None:
    """The plan named by ``REPRO_FAULT_PLAN``, if any (mtime-cached)."""
    path = os.environ.get(FAULT_PLAN_ENV)
    if not path:
        return None
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError as error:
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV}={path}: {error}"
        ) from None
    key = (path, mtime)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = FaultPlan.load(Path(path))
        _PLAN_CACHE.clear()  # one active plan per process is plenty
        _PLAN_CACHE[key] = plan
    return plan


def _in_worker() -> bool:
    """Whether this process is a spawned child (safe to die/hang)."""
    return multiprocessing.parent_process() is not None


def maybe_inject(point_id: str, attempt: int) -> None:
    """Fire the active plan's fault for ``(point_id, attempt)``, if any.

    Called by :func:`~repro.sweeps.worker.execute_point` before any
    real work, in every executor. Fatal kinds (``crash``, ``kill``,
    ``hang``) are worker-only — in the parent process they warn and
    skip, because dying would defeat the layer under test and hanging
    the serial executor leaves no watchdog to recover it.
    """
    plan = active_fault_plan()
    if plan is None:
        return
    fault = plan.lookup(point_id, attempt)
    if fault is None:
        return
    if fault.kind == "exception":
        raise InjectedFault(
            f"{fault.message} (point {point_id}, attempt {attempt})"
        )
    if fault.kind == "kill-host":
        host_pid = os.environ.get(HOST_PID_ENV)
        if not host_pid:
            warnings.warn(
                f"fault plan requests a 'kill-host' fault for point "
                f"{point_id} attempt {attempt}, but this process is "
                f"not (inside) a sweep-work host; skipping (kill-host "
                f"only fires under the distributed executor)",
                RuntimeWarning,
            )
            return
        # Kill the host first — taking down its whole process tree is
        # the point — then this process if it was a pool child of it.
        os.kill(int(host_pid), signal.SIGKILL)
        if int(host_pid) != os.getpid():  # pragma: no cover - dies
            os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - unreachable
    if not _in_worker():
        warnings.warn(
            f"fault plan requests a {fault.kind!r} fault for point "
            f"{point_id} attempt {attempt}, but this is not a spawned "
            f"worker process; skipping (fatal faults only fire under "
            f"--jobs >= 2)",
            RuntimeWarning,
        )
        return
    if fault.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    # hang: sleep in short slices so an external SIGTERM still lands
    # promptly between slices on platforms where sleep is uninterruptible.
    deadline = time.monotonic() + fault.seconds
    while time.monotonic() < deadline:
        time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
