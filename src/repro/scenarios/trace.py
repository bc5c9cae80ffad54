"""Dynamics traces: record a scenario's schedule, replay it anywhere.

:mod:`repro.workloads.traces` freezes *requests* (who downloads what);
this module freezes *dynamics* — the per-epoch event schedule a
scenario emits (node leave/join logs, cache policy shifts, incentive
overrides) — into a portable JSON file. The two together make a run
fully replayable from recorded inputs, the way the paper's experiments
stress the swarm under recorded conditions rather than fresh synthetic
draws.

A :class:`DynamicsTrace` is a versioned container:

* a **header** carrying the provenance the replay is only valid for —
  address width (``bits``), overlay size (``n_nodes``) and seed
  (``overlay_seed``), the source-scenario composition string, whether
  the source re-homed storers (``recompute_storers``), and the epoch
  count the schedule was sized for;
* one or more **streams**, each a recorded per-epoch event schedule.
  Streams mirror the composed source's children: the
  :class:`~repro.scenarios.plan.EpochPlan` gives every stream a
  private alive mask (see
  :meth:`~repro.scenarios.base.Scenario.stream_schedules`), so a
  recorded ``churn+join`` composition replays with exactly the
  original AND-of-masks topology semantics.

:func:`record_dynamics` captures any scenario; the
:class:`~repro.scenarios.library.TraceReplay` scenario (grammar kind
``trace:path=...``) replays a saved file through the unchanged epoch
machinery — same events, same chained table fingerprints, same
:class:`~repro.perf.table_cache.EpochTableCache` entries — which is
why replaying a recording is bit-identical to running the source
scenario directly (the golden round-trip tests pin this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .._files import TextLines, open_output
from ..errors import ConfigurationError
from ..workloads.traces import DYNAMICS_TRACE_FORMAT, TraceHeader
from .base import Schedule, ScenarioContext
from .events import event_from_json, event_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Scenario

__all__ = ["DYNAMICS_TRACE_FORMAT", "DynamicsTrace", "record_dynamics"]


def _bad_trace(path: str | Path, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"cannot read dynamics trace {path}: {why}"
    )


@dataclass(frozen=True)
class DynamicsTrace:
    """A recorded scenario schedule plus the provenance it replays on.

    ``streams`` is a tuple of per-stream schedules (each ``n_epochs``
    tuples of events); ``source`` is the composition string of the
    scenario that was recorded (informational — replay never re-runs
    it); ``recompute_storers`` preserves the source's re-homing
    semantics, which the schedule alone cannot express.
    """

    bits: int
    n_nodes: int
    overlay_seed: int
    source: str
    recompute_storers: bool
    n_epochs: int
    streams: tuple[Schedule, ...]

    def __post_init__(self) -> None:
        if not self.streams:
            raise ConfigurationError(
                "a dynamics trace needs at least one event stream"
            )
        for index, stream in enumerate(self.streams):
            if len(stream) != self.n_epochs:
                raise ConfigurationError(
                    f"dynamics-trace stream {index} has {len(stream)} "
                    f"epochs, header says {self.n_epochs}"
                )

    @property
    def header(self) -> TraceHeader:
        """The provenance this trace replays on."""
        return TraceHeader(self.bits, self.n_nodes, self.overlay_seed,
                           DYNAMICS_TRACE_FORMAT)

    @property
    def n_events(self) -> int:
        """Total recorded events across every stream and epoch."""
        return sum(
            len(epoch) for stream in self.streams for epoch in stream
        )

    def describe(self) -> str:
        """One line for CLI output and logs."""
        return (
            f"{self.source!r}: {len(self.streams)} stream(s) x "
            f"{self.n_epochs} epoch(s), {self.n_events} event(s), "
            f"{self.n_nodes} nodes / {self.bits}-bit space "
            f"(overlay seed {self.overlay_seed})"
        )

    # ------------------------------------------------------------------
    # Persistence

    def to_json(self) -> dict:
        """The full versioned document (deterministic key order)."""
        return {
            **self.header.to_json(),
            "source": self.source,
            "recompute_storers": self.recompute_storers,
            "n_epochs": self.n_epochs,
            "streams": [
                [[event_to_json(event) for event in epoch]
                 for epoch in stream]
                for stream in self.streams
            ],
        }

    @classmethod
    def from_json(cls, document: Mapping, *,
                  path: str | Path = "<memory>") -> "DynamicsTrace":
        """Decode a document written by :meth:`to_json`.

        Every malformation — wrong format tag, missing header fields,
        non-list streams, unknown event kinds — raises
        :class:`~repro.errors.ConfigurationError` naming *path* and
        the problem, so a truncated or hand-edited file never replays
        a silently different scenario.
        """
        header = TraceHeader.from_json(document, path=path,
                                       tag=DYNAMICS_TRACE_FORMAT)
        source = document.get("source")
        recompute = document.get("recompute_storers")
        n_epochs = document.get("n_epochs")
        raw_streams = document.get("streams")
        if type(source) is not str:
            raise _bad_trace(path, f"header field 'source' must be a "
                             f"string, got {source!r}")
        if type(recompute) is not bool:
            raise _bad_trace(path, f"header field 'recompute_storers' "
                             f"must be true or false, got {recompute!r}")
        if type(n_epochs) is not int or n_epochs < 0:
            raise _bad_trace(path, f"header field 'n_epochs' must be an "
                             f"integer >= 0, got {n_epochs!r}")
        if not isinstance(raw_streams, list):
            raise _bad_trace(path, "streams must be a list")
        streams = []
        for raw_stream in raw_streams:
            if not isinstance(raw_stream, list):
                raise _bad_trace(path, "each stream must be a list of "
                                 "epochs")
            stream = []
            for raw_epoch in raw_stream:
                if not isinstance(raw_epoch, list):
                    raise _bad_trace(path, "each epoch must be a list "
                                     "of events")
                try:
                    stream.append(tuple(
                        event_from_json(raw_event)
                        for raw_event in raw_epoch
                    ))
                except ConfigurationError as error:
                    raise _bad_trace(path, str(error)) from None
            streams.append(tuple(stream))
        try:
            return cls(
                bits=header.bits, n_nodes=header.n_nodes,
                overlay_seed=header.overlay_seed,
                source=source, recompute_storers=recompute,
                n_epochs=n_epochs, streams=tuple(streams),
            )
        except ConfigurationError as error:
            raise _bad_trace(path, str(error)) from None

    def save(self, path: str | Path) -> None:
        """Write the trace as versioned JSON."""
        with open_output(path, "dynamics trace") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "DynamicsTrace":
        """Read a trace written by :meth:`save` (validating everything)."""
        with TextLines(path, "dynamics trace") as lines:
            text = "".join(lines).strip()
        try:
            document, end = json.JSONDecoder().raw_decode(text)
        except (ValueError, RecursionError) as error:
            raise _bad_trace(
                path, f"not valid JSON ({error}); the file may be "
                f"truncated or corrupt"
            ) from None
        if end < len(text):
            # More than one JSON value: a headed NDJSON request trace
            # is refused by its header's tag, anything else as corrupt.
            TraceHeader.from_json(document, path=path,
                                  tag=DYNAMICS_TRACE_FORMAT)
            raise _bad_trace(path, "data after the JSON document; the "
                             "file may be corrupt")
        return cls.from_json(document, path=path)

    # ------------------------------------------------------------------
    # Replay-side validation

    def check_context(self, ctx: ScenarioContext,
                      *, path: str | Path = "<memory>") -> None:
        """Refuse replay against a context the trace was not recorded for.

        Bits/n_nodes always have to match — recorded dense node
        indices and the epoch count are meaningless on a different
        overlay shape — and the overlay seed must match whenever the
        context carries one. A context asking for *more* epochs than
        were recorded is refused too (the trace simply does not know
        what happened next); fewer is fine, the tail is unused.
        """
        self.header.check(ctx.space_size.bit_length() - 1, ctx.n_nodes,
                          ctx.overlay_seed, path=path)
        if ctx.n_epochs > self.n_epochs:
            raise ConfigurationError(
                f"dynamics trace {path} records {self.n_epochs} "
                f"epoch(s) but this workload spans {ctx.n_epochs}; "
                f"record the trace with at least as many epochs "
                f"(n_files / batch_files) as the replay workload"
            )


def record_dynamics(scenario: "Scenario",
                    ctx: ScenarioContext) -> DynamicsTrace:
    """Capture *scenario*'s emitted schedule for *ctx* as a trace.

    The recording is exact: each composed child contributes its own
    stream(s) via
    :meth:`~repro.scenarios.base.Scenario.stream_schedules`, so the
    replayed plan folds topology deltas into the same private alive
    masks the direct run would. *ctx* must carry the overlay seed —
    a trace without one could not refuse wrong-overlay replays.
    """
    if ctx.overlay_seed is None:
        raise ConfigurationError(
            "recording a dynamics trace needs the overlay seed in the "
            "ScenarioContext; pass overlay_seed=... so replays can be "
            "validated against the right overlay"
        )
    bits = (ctx.space_size - 1).bit_length()
    if (1 << bits) != ctx.space_size:
        raise ConfigurationError(
            f"space_size must be a power of two to record a trace, "
            f"got {ctx.space_size}"
        )
    return DynamicsTrace(
        bits=bits,
        n_nodes=ctx.n_nodes,
        overlay_seed=ctx.overlay_seed,
        source=scenario.spec(),
        recompute_storers=bool(scenario.recompute_storers),
        n_epochs=ctx.n_epochs,
        streams=tuple(scenario.stream_schedules(ctx)),
    )
