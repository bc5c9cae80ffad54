"""Import measured join/leave logs as dynamics traces.

Swarm/IPFS-style membership logs record when peers arrive and depart
as timestamped events; the engine consumes dynamics as a per-epoch
:class:`~repro.scenarios.base.Schedule`. This module buckets a
measured log onto an epoch grid and maps its peer identifiers onto
the overlay population (integers that are overlay addresses map
directly; anything else lands on a deterministic SHA-256-hashed
node, the same convention as the request-log importer), producing a
versioned :class:`~repro.scenarios.trace.DynamicsTrace` that replays
through the unchanged ``trace:path=...`` scenario machinery.
``repro-swarm trace import-dynamics`` is the CLI wrapper.

Accepted input: NDJSON, one membership event per line — an object
with a timestamp (``ts`` or ``time``: seconds as a finite JSON
number, never a string or a bool), an event kind (``event`` or
``action``: the string ``join``/``leave``, with ``arrive``/
``connect`` and ``depart``/``disconnect`` as aliases), and a peer
identifier (``node`` or ``peer``). Anything else is refused with a
:class:`~repro.errors.ConfigurationError` naming the line. Example::

    {"ts": 1696000000.0, "event": "leave", "node": "12D3KooWA..."}
    {"ts": 1696000007.5, "event": "join", "node": 40163}

Each log event becomes its own :class:`TopologyDelta` within its
epoch, so the log's leave/join interleaving is preserved exactly.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from typing import IO, Iterable

from .._validation import is_finite_number
from ..errors import ConfigurationError
from ..workloads.ingest import stable_hash
from .events import TopologyDelta
from .trace import DynamicsTrace

__all__ = ["DynamicsImportSummary", "import_dynamics"]

#: The most epochs an import may build. Every epoch is one list in the
#: trace, so an unbounded grid (a long log at a fine ``epoch_seconds``)
#: would exhaust memory before anything replays; this is 10x a
#: paper-scale run at ``batch_files=1``.
MAX_EPOCHS = 100_000

_JOIN_WORDS = frozenset({"join", "arrive", "connect", "up"})
_LEAVE_WORDS = frozenset({"leave", "depart", "disconnect", "down"})


@dataclass(frozen=True)
class DynamicsImportSummary:
    """What an import did, for CLI output and tests."""

    events: int
    joins: int
    leaves: int
    n_epochs: int
    span_seconds: float
    direct_nodes: int
    hashed_nodes: int

    def __str__(self) -> str:
        return (
            f"{self.events} membership events ({self.joins} joins, "
            f"{self.leaves} leaves) over {self.span_seconds:.1f}s -> "
            f"{self.n_epochs} epoch(s); peer ids: {self.direct_nodes} "
            f"direct, {self.hashed_nodes} hashed"
        )


def import_dynamics(lines: Iterable[str] | IO[str], *, overlay,
                    n_epochs: int | None = None,
                    epoch_seconds: float | None = None,
                    recompute_storers: bool = False,
                    source: str = "import",
                    ) -> tuple[DynamicsTrace, DynamicsImportSummary]:
    """Bucket a membership log onto an epoch grid.

    Exactly one of *n_epochs* (split the log's time span into that
    many equal epochs) or *epoch_seconds* (fixed-width epochs) must
    be given. Returns the trace plus an import summary.
    """
    if (n_epochs is None) == (epoch_seconds is None):
        raise ConfigurationError(
            "give exactly one of n_epochs or epoch_seconds to define "
            "the epoch grid"
        )
    if n_epochs is not None and not 1 <= n_epochs <= MAX_EPOCHS:
        raise ConfigurationError(
            f"n_epochs must be in [1, {MAX_EPOCHS}], got {n_epochs}"
        )
    if epoch_seconds is not None and not epoch_seconds > 0:
        raise ConfigurationError(
            f"epoch_seconds must be > 0, got {epoch_seconds}"
        )

    addresses = overlay.address_array()
    population = {int(a): i for i, a in enumerate(addresses)}
    n_nodes = len(addresses)
    direct = hashed = 0

    def map_node(value) -> int:
        nonlocal direct, hashed
        if (isinstance(value, int) and not isinstance(value, bool)
                and value in population):
            direct += 1
            return population[value]
        hashed += 1
        return stable_hash(str(value)) % n_nodes

    records: list[tuple[float, bool, int]] = []  # (ts, is_join, index)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            item = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"bad membership log line {lineno}: not valid JSON "
                f"({error})"
            ) from None
        if not isinstance(item, dict):
            raise ConfigurationError(
                f"bad membership log line {lineno}: expected a JSON "
                f"object, got {type(item).__name__}"
            )
        ts = item.get("ts", item.get("time"))
        kind = item.get("event", item.get("action"))
        node = item.get("node", item.get("peer"))
        if ts is None or kind is None or node is None:
            raise ConfigurationError(
                f"bad membership log line {lineno}: need 'ts', "
                f"'event' and 'node' fields"
            )
        if not is_finite_number(ts):
            raise ConfigurationError(
                f"bad membership log line {lineno}: timestamp "
                f"{reprlib.repr(ts)} is not a finite JSON number"
            )
        if type(kind) is not str:
            raise ConfigurationError(
                f"bad membership log line {lineno}: event kind "
                f"{reprlib.repr(kind)} is not a string"
            )
        ts = float(ts)
        kind = kind.lower()
        if kind in _JOIN_WORDS:
            is_join = True
        elif kind in _LEAVE_WORDS:
            is_join = False
        else:
            raise ConfigurationError(
                f"bad membership log line {lineno}: unknown event "
                f"kind {kind!r} (expected join/leave)"
            )
        records.append((ts, is_join, map_node(node)))

    if not records:
        raise ConfigurationError(
            "membership log contained no events; nothing to import"
        )

    t0 = min(r[0] for r in records)
    t1 = max(r[0] for r in records)
    span = t1 - t0
    if not math.isfinite(span):
        raise ConfigurationError(
            f"membership log timestamps run from {t0!r} to {t1!r}, a "
            f"span too wide to bucket into epochs"
        )
    if epoch_seconds is not None:
        if span / epoch_seconds > MAX_EPOCHS:
            raise ConfigurationError(
                f"a {span:g}s membership log at epoch_seconds="
                f"{epoch_seconds:g} needs more than {MAX_EPOCHS} epochs; "
                f"use wider epochs"
            )
        n_epochs = max(1, math.ceil(span / epoch_seconds))
        width = epoch_seconds
    else:
        assert n_epochs is not None
        width = span / n_epochs if span > 0 else 1.0

    epochs: list[list[TopologyDelta]] = [[] for _ in range(n_epochs)]
    joins = leaves = 0
    for ts, is_join, index in records:
        epoch = min(int((ts - t0) / width), n_epochs - 1)
        if is_join:
            joins += 1
            epochs[epoch].append(TopologyDelta(joins=(index,)))
        else:
            leaves += 1
            epochs[epoch].append(TopologyDelta(leaves=(index,)))

    trace = DynamicsTrace(
        bits=overlay.space.bits,
        n_nodes=n_nodes,
        overlay_seed=overlay.config.seed,
        source=source,
        recompute_storers=recompute_storers,
        n_epochs=n_epochs,
        streams=(tuple(tuple(epoch) for epoch in epochs),),
    )
    summary = DynamicsImportSummary(
        events=len(records), joins=joins, leaves=leaves,
        n_epochs=n_epochs, span_seconds=span,
        direct_nodes=direct, hashed_nodes=hashed,
    )
    return trace, summary
