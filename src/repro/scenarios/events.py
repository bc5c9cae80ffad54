"""Epoch events: the vocabulary scenarios speak to the engine in.

A scenario never touches the simulation engine directly; it emits a
per-epoch schedule of three event kinds, which the
:class:`~repro.scenarios.plan.EpochPlan` folds into the running
dynamic state the unified hop kernel consumes:

* :class:`TopologyDelta` — node departures and (re)joins, expressed as
  dense node indices. Deltas are incremental by design: the plan
  maintains one alive mask across epochs, and the same delta feeds the
  chained table fingerprint that lets per-epoch storer tables hit the
  :class:`~repro.perf.table_cache.EpochTableCache` instead of being
  rebuilt.
* :class:`CacheState` — switch the path-cache model on (optionally
  with a FIFO capacity bound) or off. The cache mask itself persists
  across epochs; the event only changes the policy.
* :class:`PolicyOverride` — incentive/demand policy: a set of
  originators whose downloads are never paid for (free-riding), or an
  origin focus set that concentrates this epoch's demand on a hot
  subset of nodes (demand shift).

Events are frozen dataclasses with tuple payloads, so schedules are
hashable, comparable, and deterministic — properties the composition
tests pin. :func:`event_to_json` / :func:`event_from_json` give every
event an exact plain-data form (the dynamics-trace file format of
:mod:`repro.scenarios.trace` is built on it): payloads are tagged by
``kind`` and round-trip bit-exactly — the replayed schedule compares
equal to the recorded one, which is what makes trace replay
bit-identical to running the source scenario directly.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError

__all__ = [
    "TopologyDelta",
    "CacheState",
    "PolicyOverride",
    "Event",
    "event_to_json",
    "event_from_json",
]


def _index_tuple(values, name: str) -> tuple[int, ...]:
    """Normalize an index sequence to a tuple of plain non-negative ints."""
    out = tuple(int(v) for v in values)
    if any(v < 0 for v in out):
        raise ConfigurationError(f"{name} indices must be >= 0, got {out}")
    return out


@dataclass(frozen=True)
class TopologyDelta:
    """Nodes leaving and joining the overlay at an epoch boundary.

    Indices are dense overlay indices. A node may appear in ``joins``
    without ever having left (initial warm-up populations start fully
    alive); leaving an already-dead node is a no-op. The plan applies
    leaves before joins, event by event, in schedule order.
    """

    leaves: tuple[int, ...] = ()
    joins: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "leaves", _index_tuple(self.leaves, "leaves")
        )
        object.__setattr__(self, "joins", _index_tuple(self.joins, "joins"))

    def __bool__(self) -> bool:
        return bool(self.leaves or self.joins)


@dataclass(frozen=True)
class CacheState:
    """Path-cache policy from this epoch on.

    ``capacity`` bounds the number of distinct cached chunk addresses
    (FIFO eviction in insertion order); ``0`` means unbounded — the
    paper-extension model where every delivered chunk stays cached on
    its path.
    """

    enabled: bool = True
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ConfigurationError(
                f"cache capacity must be >= 0, got {self.capacity}"
            )


@dataclass(frozen=True)
class PolicyOverride:
    """Incentive/demand policy from this epoch on.

    ``unpaid_origins`` replaces the set of free-riding originators
    (dense indices; ``None`` leaves the current set unchanged, an
    empty tuple clears it). ``origin_focus`` concentrates demand: each
    download origin ``o`` is remapped to ``focus[o % len(focus)]``
    for the epochs the focus is in force (``None`` unchanged, empty
    tuple restores the workload's own origins).
    """

    unpaid_origins: tuple[int, ...] | None = None
    origin_focus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.unpaid_origins is not None:
            object.__setattr__(
                self, "unpaid_origins",
                _index_tuple(self.unpaid_origins, "unpaid_origins"),
            )
        if self.origin_focus is not None:
            object.__setattr__(
                self, "origin_focus",
                _index_tuple(self.origin_focus, "origin_focus"),
            )


Event = TopologyDelta | CacheState | PolicyOverride


def event_to_json(event: Event) -> dict:
    """The tagged plain-data form of one event (JSON-serializable)."""
    if isinstance(event, TopologyDelta):
        return {
            "kind": "topology",
            "leaves": list(event.leaves),
            "joins": list(event.joins),
        }
    if isinstance(event, CacheState):
        return {
            "kind": "cache",
            "enabled": event.enabled,
            "capacity": event.capacity,
        }
    if isinstance(event, PolicyOverride):
        return {
            "kind": "policy",
            "unpaid_origins": (
                None if event.unpaid_origins is None
                else list(event.unpaid_origins)
            ),
            "origin_focus": (
                None if event.origin_focus is None
                else list(event.origin_focus)
            ),
        }
    raise ConfigurationError(f"unknown scenario event {event!r}")


#: Each event kind's class and the JSON type of each of its keys.
_KINDS = {
    "topology": (TopologyDelta, {"leaves": "list of ints",
                                 "joins": "list of ints"}),
    "cache": (CacheState, {"enabled": "bool", "capacity": "int"}),
    "policy": (PolicyOverride, {"unpaid_origins": "list of ints or null",
                                "origin_focus": "list of ints or null"}),
}


def _field(payload: Mapping, name: str, want: str):
    """``payload[name]`` as the event field it encodes, never coerced."""
    value = payload[name]
    if value is None and want.endswith("or null"):
        return None
    if (type(value) is bool if want == "bool"
            else type(value) is int if want == "int"
            else type(value) is list
            and all(type(v) is int for v in value)):
        return tuple(value) if type(value) is list else value
    raise ValueError(f"{name!r} must be a JSON {want}, got "
                     f"{reprlib.repr(value)}")


def event_from_json(payload: Mapping) -> Event:
    """Inverse of :func:`event_to_json`; exact tuple round-trip.

    Strict, like :class:`~repro.workloads.traces.TraceHeader`: a
    payload holds a known ``kind`` tag and exactly that kind's keys,
    each a JSON value of its type (never coerced), or
    :class:`~repro.errors.ConfigurationError` is raised. A trace
    written by a newer format must not silently replay a subset, or a
    coerced version, of its dynamics.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"a trace event must be an object, got "
            f"{type(payload).__name__}"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigurationError(
            f"unknown trace event kind {reprlib.repr(kind)}; this file "
            f"needs a newer reader (known kinds: topology, cache, policy)"
        )
    cls, fields = _KINDS[kind]
    extra = sorted(map(str, set(payload) - {"kind", *fields}))
    missing = [name for name in fields if name not in payload]
    try:
        if extra or missing:
            raise ValueError(f"unknown key {extra[0]!r}" if extra
                             else f"missing key {missing[0]!r}")
        return cls(**{name: _field(payload, name, want)
                      for name, want in fields.items()})
    except ValueError as error:
        raise ConfigurationError(
            f"malformed {kind!r} trace event {reprlib.repr(payload)}: "
            f"{error}"
        ) from None
