"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subclasses are grouped by the
subsystem that raises them; they carry enough context in their message
to diagnose a failure without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised eagerly at object construction time so that misconfiguration
    fails fast rather than corrupting a long simulation run.
    """


class AddressError(ConfigurationError):
    """An overlay address is outside the configured address space."""


class OverlayError(ReproError):
    """The overlay network is malformed or cannot satisfy a request."""


class RoutingError(ReproError):
    """Chunk routing could not make progress toward the target."""

    def __init__(self, message: str, *, origin: int | None = None,
                 target: int | None = None) -> None:
        super().__init__(message)
        self.origin = origin
        self.target = target


class AccountingError(ReproError):
    """A SWAP accounting operation violated an invariant."""


class SettlementError(AccountingError):
    """A settlement (cheque) operation failed, e.g. over-drawing."""


class InsufficientFundsError(SettlementError):
    """A peer attempted to issue a cheque beyond its funds/limits."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ExperimentError(ReproError):
    """An experiment definition or run is invalid."""


class SweepExecutionError(ExperimentError):
    """A sweep could not complete: a point exhausted its retry budget
    under ``--fail-fast``, or the worker pool died more often than the
    bounded-restart budget allows."""


class StoreMergeError(ConfigurationError):
    """Shard sweep stores cannot be merged into one.

    Raised by :meth:`repro.sweeps.store.SweepStore.merge` when shards
    disagree on the spec they were sharded from, or hold irreconcilable
    records for the same point — conditions under which no merged store
    could be byte-identical to a serial run.
    """


class SweepInterrupted(BaseException):
    """SIGINT/SIGTERM arrived mid-sweep (graceful-shutdown signal).

    Deliberately a :class:`BaseException` (like
    :class:`KeyboardInterrupt`): the executor's per-point failure
    handling catches :class:`Exception`, and a shutdown request must
    never be mistaken for a retryable point failure. Carries the signal
    number so the CLI can exit ``128 + signum``.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"sweep interrupted by signal {signum}")
        self.signum = signum


class WorkloadError(ConfigurationError):
    """A workload description is invalid (empty ranges, bad shares...)."""


class InputError(WorkloadError):
    """A file cannot be opened, a line of it is not UTF-8 text, or the
    JSON document it should hold does not parse."""
