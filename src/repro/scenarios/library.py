"""The built-in scenario library.

Five composable dynamics, each a frozen dataclass over its own seeds
and rates (so schedules are pure functions of the parameters):

* :class:`Churn` — a fresh independent node-alive mask per epoch,
  expressed as :class:`~repro.scenarios.events.TopologyDelta` flips
  against the previous epoch; the golden scenario fixtures pin its
  runs bit-identically.
* :class:`PathCaching` — the path-cache model, optionally bounded to
  a FIFO ``size``; ``size=0`` is unbounded.
* :class:`FreeRiding` — a fixed set of originators that never pay:
  their downloads are routed and counted, their first hops earn
  nothing.
* :class:`NodeJoin` — a join storm: a fraction of the overlay starts
  offline and rejoins in equal waves, with content re-homed to the
  closest live node (``recompute_storers``), exercising the
  delta-patched epoch tables.
* :class:`DemandShift` — each epoch's demand concentrates on a fresh
  hot subset of originators (flash crowds moving around the network).
* :class:`TraceReplay` — not synthetic at all: replays a recorded
  :class:`~repro.scenarios.trace.DynamicsTrace` file, stream for
  stream, after validating its provenance header against the run's
  overlay. Composes with everything above like any other scenario.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .._validation import require_fraction, require_int, require_non_negative
from ..errors import ConfigurationError
from .base import Scenario, ScenarioContext, Schedule
from .events import CacheState, PolicyOverride, TopologyDelta
from .trace import DynamicsTrace

__all__ = [
    "Churn",
    "PathCaching",
    "FreeRiding",
    "NodeJoin",
    "DemandShift",
    "TraceReplay",
]


@dataclass(frozen=True)
class Churn(Scenario):
    """Independent per-epoch offline sampling at a fixed rate.

    Epoch ``e`` draws ``rng.random(n) >= rate`` from a dedicated
    generator and emits the flips against epoch ``e - 1`` as a
    topology delta. The delta event is emitted even when empty so the
    engine runs the same (alive-mask) code path every epoch.

    ``recompute`` selects neighborhood re-replication: storers are
    re-homed to the closest live node per epoch (via the incremental
    epoch-table patching); otherwise chunks whose static storer is
    offline count as unavailable.
    """

    rate: float
    seed: int = 99
    recompute: bool = False

    kind = "churn"

    def __post_init__(self) -> None:
        require_fraction(self.rate, "churn rate")
        require_int(self.seed, "churn seed")

    @property
    def recompute_storers(self) -> bool:  # type: ignore[override]
        return self.recompute

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        rng = np.random.default_rng(self.seed)
        previous = np.ones(ctx.n_nodes, dtype=bool)
        epochs = []
        for _ in range(ctx.n_epochs):
            alive = rng.random(ctx.n_nodes) >= self.rate
            leaves = np.flatnonzero(previous & ~alive)
            joins = np.flatnonzero(~previous & alive)
            epochs.append(
                (TopologyDelta(tuple(leaves), tuple(joins)),)
            )
            previous = alive
        return self._check_schedule(ctx, tuple(epochs))


@dataclass(frozen=True)
class PathCaching(Scenario):
    """Path caches along delivery routes; ``size=0`` is unbounded.

    One :class:`CacheState` event at epoch 0 switches the model on;
    the cache mask itself evolves with the traffic (every delivered
    chunk is cached, FIFO-evicted beyond ``size``).
    """

    size: int = 0

    kind = "caching"

    def __post_init__(self) -> None:
        require_int(self.size, "cache size")
        require_non_negative(self.size, "cache size")

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        if ctx.n_epochs == 0:
            return ()
        head: tuple = (CacheState(enabled=True, capacity=self.size),)
        return self._check_schedule(
            ctx, (head,) + ((),) * (ctx.n_epochs - 1)
        )


@dataclass(frozen=True)
class FreeRiding(Scenario):
    """A fixed fraction of originators whose downloads are never paid.

    Riders are sampled once (``round(fraction * n)`` dense node
    indices drawn without replacement) and installed as a
    :class:`PolicyOverride` at epoch 0.
    """

    fraction: float = 0.3
    seed: int = 13

    kind = "freeriding"

    def __post_init__(self) -> None:
        require_fraction(self.fraction, "free-riding fraction")
        require_int(self.seed, "free-riding seed")

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        if ctx.n_epochs == 0:
            return ()
        n_riders = round(self.fraction * ctx.n_nodes)
        riders: tuple[int, ...] = ()
        if n_riders:
            rng = np.random.default_rng(self.seed)
            riders = tuple(
                sorted(rng.choice(ctx.n_nodes, size=n_riders,
                                  replace=False))
            )
        head: tuple = (PolicyOverride(unpaid_origins=riders),)
        return self._check_schedule(
            ctx, (head,) + ((),) * (ctx.n_epochs - 1)
        )


@dataclass(frozen=True)
class NodeJoin(Scenario):
    """Join storm: an initially offline cohort rejoins in equal waves.

    ``fraction`` of the overlay leaves before the first epoch; the
    cohort then joins in ``waves`` equal slices starting at epoch 1
    (``waves=0`` spreads them across every remaining epoch). Content
    is re-homed to the closest live node as the population grows —
    each join wave is a delta patch on the previous epoch's storer
    table, the cheap path the epoch-table cache exists for.
    """

    fraction: float = 0.3
    waves: int = 0
    seed: int = 17

    kind = "join"
    recompute_storers = True

    def __post_init__(self) -> None:
        require_fraction(self.fraction, "join fraction")
        require_int(self.waves, "join waves")
        require_non_negative(self.waves, "join waves")
        require_int(self.seed, "join seed")

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        if ctx.n_epochs == 0:
            return ()
        n_offline = round(self.fraction * ctx.n_nodes)
        if n_offline == 0:
            return self._check_schedule(ctx, ((),) * ctx.n_epochs)
        rng = np.random.default_rng(self.seed)
        offline = np.sort(
            rng.choice(ctx.n_nodes, size=n_offline, replace=False)
        )
        epochs: list[tuple] = [
            (TopologyDelta(leaves=tuple(offline)),)
        ]
        span = ctx.n_epochs - 1
        waves = min(self.waves, span) if self.waves else span
        if waves:
            slices = np.array_split(offline, waves)
            for wave in range(span):
                if wave < waves and slices[wave].size:
                    epochs.append(
                        (TopologyDelta(joins=tuple(slices[wave])),)
                    )
                else:
                    epochs.append(())
        return self._check_schedule(ctx, tuple(epochs))


@dataclass(frozen=True)
class DemandShift(Scenario):
    """Flash crowds: each epoch's demand focuses on a hot node subset.

    Epoch ``e`` draws a fresh hot set of ``max(1, round(share * n))``
    nodes and remaps every origin into it (``focus[o % len(focus)]``),
    modelling demand that moves around the network instead of staying
    uniformly spread.
    """

    share: float = 0.1
    seed: int = 23

    kind = "demand"

    def __post_init__(self) -> None:
        require_fraction(self.share, "demand share")
        require_int(self.seed, "demand seed")

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        rng = np.random.default_rng(self.seed)
        size = max(1, round(self.share * ctx.n_nodes))
        epochs = []
        for _ in range(ctx.n_epochs):
            hot = np.sort(rng.choice(ctx.n_nodes, size=size, replace=False))
            epochs.append((PolicyOverride(origin_focus=tuple(hot)),))
        return self._check_schedule(ctx, tuple(epochs))


#: Loaded dynamics traces keyed by (resolved path, mtime_ns, size):
#: sweep specs construct every cell's config eagerly, so the same file
#: would otherwise be parsed once per cell per process.
_TRACE_CACHE: dict[tuple, DynamicsTrace] = {}


def _load_dynamics_trace(path: str) -> DynamicsTrace:
    resolved = os.path.abspath(path)
    try:
        stat = os.stat(resolved)
    except OSError as error:
        raise ConfigurationError(
            f"cannot read dynamics trace {path}: {error}"
        ) from None
    key = (resolved, stat.st_mtime_ns, stat.st_size)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = DynamicsTrace.load(resolved)
        while len(_TRACE_CACHE) >= 8:  # a run touches a few files at most
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = trace
    return trace


@dataclass(frozen=True)
class TraceReplay(Scenario):
    """Replay a recorded :class:`~repro.scenarios.trace.DynamicsTrace`.

    The file is read (and its versioned header validated) at
    construction time — a bad path or corrupt file fails when the
    configuration is built, never inside a sweep worker. At schedule
    time the header is checked against the actual run context (bits,
    node count, overlay seed, epoch count), so a trace can only replay
    on the overlay it was captured for. The recorded streams pass
    through verbatim: replay is bit-identical to running the source
    scenario directly.

    Note the composition grammar reserves ``+`` and ``,``, so trace
    file paths containing those characters cannot be spelled in a
    ``trace:path=...`` spec string (construct :class:`TraceReplay`
    directly in that case; ``=`` is fine — the grammar splits on the
    first ``=`` only).
    """

    path: str

    kind = "trace"

    def __post_init__(self) -> None:
        self._trace()  # fail early: missing/corrupt files never sweep

    def _trace(self) -> DynamicsTrace:
        return _load_dynamics_trace(self.path)

    @property
    def recompute_storers(self) -> bool:  # type: ignore[override]
        return self._trace().recompute_storers

    def schedule(self, ctx: ScenarioContext) -> Schedule:
        streams = self.stream_schedules(ctx)
        merged = tuple(
            tuple(
                event
                for stream in streams
                for event in stream[epoch]
            )
            for epoch in range(ctx.n_epochs)
        )
        return self._check_schedule(ctx, merged)

    def stream_schedules(self, ctx: ScenarioContext
                         ) -> tuple[Schedule, ...]:
        trace = self._trace()
        trace.check_context(ctx, path=self.path)
        return tuple(
            stream[:ctx.n_epochs] for stream in trace.streams
        )
