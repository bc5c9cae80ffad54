"""Epoch plans: folding scenario schedules into engine-ready state.

:class:`EpochPlan` is the interpreter between the declarative world
(:class:`~repro.scenarios.base.Scenario` schedules of
:mod:`~repro.scenarios.events`) and the vectorized engine: consumed
strictly in epoch order, it maintains the running alive mask, the
path-cache runtime, the free-rider mask, and the demand focus, and
hands the unified hop kernel one :class:`EpochState` per epoch.

Storer tables under topology change are resolved through the
process-global :class:`~repro.perf.table_cache.EpochTableCache`:
every epoch whose alive set changed chains a fingerprint
(``parent_fp + delta``) and, on a miss, *patches* the parent epoch's
table with :func:`~repro.kademlia.table.patch_storer_table` instead
of rebuilding from scratch — so sweep replicas that share a scenario
schedule compute each epoch's table once per process, and even cold
epochs pay only for the addresses the delta actually touched.

When handed a writable coded routing matrix, the plan additionally
keeps that matrix patched to the current epoch's storer set with the
sparse absolute :class:`~repro.kademlia.table.CodedPatch` diffs of
:func:`~repro.kademlia.table.coded_arrive_patch` — applied in place on
epoch entry, reverted on the next transition and on
:meth:`EpochPlan.restore_coded` — which is what lets the engine route
dynamic epochs with the *static* banded kernel instead of the decoded
three-column mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..kademlia.table import (
    alive_storer_table,
    chain_fingerprint,
    coded_arrive_patch,
    dead_value_lut,
    patch_storer_table,
)
from .base import Scenario, ScenarioContext
from .events import CacheState, PolicyOverride, TopologyDelta

__all__ = [
    "CacheRuntime",
    "EpochState",
    "EpochPlan",
]


class CacheRuntime:
    """Mutable path-cache state shared across epochs.

    ``mask`` flags cached chunk addresses; a non-zero ``capacity``
    bounds the number of distinct cached addresses with FIFO eviction
    in first-insertion order. ``capacity == 0`` is the unbounded mask
    (insertion is a plain mask write).
    """

    def __init__(self, space_size: int, capacity: int = 0) -> None:
        self.mask = np.zeros(space_size, dtype=bool)
        self.capacity = int(capacity)
        self.enabled = True
        self._ring = np.empty(0, dtype=np.int64)

    @property
    def cached_count(self) -> int:
        """Number of distinct addresses currently cached.

        Kept for the caching tests, which check the FIFO bound with it.
        """
        return int(np.count_nonzero(self.mask))

    def set_capacity(self, capacity: int) -> None:
        """Change the FIFO bound, reconciling already-cached addresses.

        Raising or introducing a bound after addresses were cached
        under an unbounded policy adopts address order as their
        insertion order (the only deterministic choice — the original
        order was never tracked); lowering the bound evicts the
        overflow immediately, oldest first.
        """
        capacity = int(capacity)
        if capacity == self.capacity:
            return
        if capacity == 0:
            self.capacity = 0
            self._ring = np.empty(0, dtype=np.int64)
            return
        cached = np.flatnonzero(self.mask)
        if self._ring.size != cached.size:
            self._ring = cached.astype(np.int64)
        self.capacity = capacity
        overflow = self._ring.size - capacity
        if overflow > 0:
            evicted, self._ring = (
                self._ring[:overflow], self._ring[overflow:].copy()
            )
            self.mask[evicted] = False

    def insert(self, targets: np.ndarray) -> None:
        """Cache every address in *targets* (deduped, FIFO-evicting)."""
        if targets.size == 0:
            return
        if self.capacity == 0:
            self.mask[targets] = True
            return
        unique, first_seen = np.unique(targets, return_index=True)
        fresh = ~self.mask[unique]
        # Ring order is first-occurrence order within the batch, not
        # np.unique's sorted order — FIFO means insertion time.
        arrivals = unique[fresh][np.argsort(first_seen[fresh],
                                            kind="stable")]
        if arrivals.size == 0:
            return
        self.mask[arrivals] = True
        self._ring = np.concatenate(
            (self._ring, arrivals.astype(np.int64))
        )
        overflow = self._ring.size - self.capacity
        if overflow > 0:
            evicted, self._ring = (
                self._ring[:overflow], self._ring[overflow:].copy()
            )
            self.mask[evicted] = False


@dataclass
class EpochState:
    """Everything dynamic the engine needs to route one epoch's slab.

    ``alive`` is ``None`` until the first topology event materializes
    a mask (the static fast path). ``storers`` is the full per-address
    storer table for the current alive set when re-homing is active,
    else ``None`` (use the static table). ``cache`` is the live
    :class:`CacheRuntime` when caching is enabled this epoch.
    ``unpaid`` and ``origin_map`` carry the policy overrides.
    ``dead_lut`` is the epoch's 3n-entry dead-value lookup
    (:func:`~repro.kademlia.table.dead_value_lut`) when any node is
    offline, else ``None`` — the patched-static kernel gathers it per
    hop to spot coded values that point at dead nodes.
    """

    index: int
    alive: np.ndarray | None
    storers: np.ndarray | None
    cache: CacheRuntime | None
    unpaid: np.ndarray | None
    origin_map: np.ndarray | None
    dead_lut: np.ndarray | None = None


class EpochPlan:
    """Sequential interpreter of one (possibly composed) scenario.

    Topology composition semantics: every composed child owns a
    **private alive stream** — its :class:`TopologyDelta` events fold
    into its own mask, because each scenario computes deltas against
    its own history (churn against its previous random draw, a join
    storm against its cohort). The engine's alive mask for an epoch is
    the AND of the child masks: a node is alive iff *every* dynamic
    keeps it alive. Folding all deltas into one shared mask instead
    would let one scenario's joins resurrect another's offline cohort.
    With a single topology-emitting child the AND is the identity, so
    single-scenario runs are unaffected.

    Parameters
    ----------
    scenario, ctx:
        The composed scenario and the context its schedule was sized
        for.
    table_fingerprint:
        The base overlay/table fingerprint the epoch-table chain
        starts from.
    base_storers:
        The static per-address storer table (compact entry dtype).
    addresses:
        Dense-index node addresses (``uint64``).
    epoch_tables:
        The cache epoch storer tables resolve through; defaults to
        the process-global one.
    coded:
        A *writable* terminal-coded routing matrix
        (``coded_transposed``, shape ``(space_size, n_nodes)``) for
        in-place epoch patching, or ``None`` to skip coded patching
        (the decoded test oracle routes without it). When given, the
        plan keeps an absolute sparse
        :class:`~repro.kademlia.table.CodedPatch` per
        storer-recomputing epoch applied to it, reverting on every
        epoch transition and on :meth:`restore_coded`, so the matrix
        is bit-exact pristine again when the run finishes.
    """

    def __init__(self, scenario: Scenario, ctx: ScenarioContext, *,
                 table_fingerprint: str, base_storers: np.ndarray,
                 addresses: np.ndarray, epoch_tables=None,
                 coded: np.ndarray | None = None) -> None:
        if epoch_tables is None:
            from ..perf.table_cache import global_epoch_table_cache

            epoch_tables = global_epoch_table_cache()
        self.scenario = scenario
        self.ctx = ctx
        # One event stream per composed child (a replayed dynamics
        # trace re-emits its recorded per-stream structure): each
        # stream's topology deltas fold into a private alive mask.
        self._streams = []
        for index, stream in enumerate(scenario.stream_schedules(ctx)):
            if len(stream) != ctx.n_epochs:
                raise ConfigurationError(
                    f"scenario {scenario.spec()!r} stream {index} "
                    f"produced {len(stream)} epochs for a "
                    f"{ctx.n_epochs}-epoch plan"
                )
            self._streams.append(stream)
        self.recompute_storers = scenario.recompute_storers
        self._epoch_tables = epoch_tables
        self._base_storers = base_storers
        self._addresses = addresses
        self._fingerprint = table_fingerprint
        self._alive: np.ndarray | None = None
        self._stream_alive: dict[int, np.ndarray] = {}
        self._storers: np.ndarray | None = None
        # Whether _storers (or, when None, _base_storers) matches the
        # current alive set — lost when every node goes offline.
        self._parent_valid = True
        self._cache: CacheRuntime | None = None
        self._unpaid: np.ndarray | None = None
        self._origin_map: np.ndarray | None = None
        if coded is not None and not (
            coded.flags.writeable and coded.flags.c_contiguous
        ):
            # Contiguity guarantees reshape(-1) below is a *view* — a
            # silent copy would divert every patch away from the
            # matrix the kernel actually gathers from.
            raise ConfigurationError(
                "EpochPlan needs a writable C-contiguous coded matrix "
                "for in-place patching; pass "
                "TableCache.writable_coded(table)"
            )
        self._coded = coded
        self._flat_coded = None if coded is None else coded.reshape(-1)
        self._coded_patch = None
        self._coded_key: str | None = None
        self._dead_lut: np.ndarray | None = None
        self._next = 0

    @property
    def n_epochs(self) -> int:
        return self.ctx.n_epochs

    def epoch(self, index: int) -> EpochState:
        """Fold epoch *index*'s events and return its engine state.

        Epochs must be consumed in order — the plan's state (alive
        masks, cache contents, fingerprint chain) is cumulative.
        """
        if index != self._next:
            raise ConfigurationError(
                f"epochs must be consumed in order: expected "
                f"{self._next}, got {index}"
            )
        self._next += 1
        touched = False
        for stream_index, schedule in enumerate(self._streams):
            for event in schedule[index]:
                if isinstance(event, TopologyDelta):
                    mask = self._stream_alive.get(stream_index)
                    if mask is None:
                        mask = np.ones(self.ctx.n_nodes, dtype=bool)
                        self._stream_alive[stream_index] = mask
                    touched = True
                    if event.leaves:
                        mask[list(event.leaves)] = False
                    if event.joins:
                        mask[list(event.joins)] = True
                elif isinstance(event, CacheState):
                    if self._cache is None:
                        self._cache = CacheRuntime(
                            self.ctx.space_size, event.capacity
                        )
                    else:
                        self._cache.set_capacity(event.capacity)
                    self._cache.enabled = event.enabled
                elif isinstance(event, PolicyOverride):
                    self._apply_policy(event)
                else:  # pragma: no cover - new event kinds fail loudly
                    raise ConfigurationError(
                        f"unknown scenario event {event!r}"
                    )
        if touched:
            before = (
                self._alive if self._alive is not None
                else np.ones(self.ctx.n_nodes, dtype=bool)
            )
            combined = np.ones(self.ctx.n_nodes, dtype=bool)
            for mask in self._stream_alive.values():
                combined &= mask
            self._alive = combined
            self._dead_lut = (
                dead_value_lut(combined) if not combined.all() else None
            )
            if self.recompute_storers:
                self._advance_storers(before)
        cache = (
            self._cache
            if self._cache is not None and self._cache.enabled
            else None
        )
        return EpochState(
            index=index,
            alive=self._alive,
            storers=self._storers if self.recompute_storers else None,
            cache=cache,
            unpaid=self._unpaid,
            origin_map=self._origin_map,
            dead_lut=self._dead_lut,
        )

    # ------------------------------------------------------------------
    # Event folding

    def _apply_policy(self, event: PolicyOverride) -> None:
        if event.unpaid_origins is not None:
            if event.unpaid_origins:
                mask = np.zeros(self.ctx.n_nodes, dtype=bool)
                mask[list(event.unpaid_origins)] = True
                self._unpaid = mask
            else:
                self._unpaid = None
        if event.origin_focus is not None:
            if event.origin_focus:
                focus = np.asarray(event.origin_focus, dtype=np.int64)
                self._origin_map = focus[
                    np.arange(self.ctx.n_nodes) % focus.size
                ]
            else:
                self._origin_map = None

    def _advance_storers(self, before: np.ndarray) -> None:
        """Chain the table fingerprint and resolve the epoch's storers."""
        alive = self._alive
        assert alive is not None
        leaves = np.flatnonzero(before & ~alive)
        joins = np.flatnonzero(~before & alive)
        if leaves.size == 0 and joins.size == 0:
            return
        self._fingerprint = chain_fingerprint(
            self._fingerprint, leaves, joins
        )
        if not alive.any():
            # Extinct epoch: the engine skips it entirely; the next
            # populated epoch cannot patch from here.
            self._storers = None
            self._parent_valid = False
            self.restore_coded()
            return
        parent = (
            self._storers if self._storers is not None
            else self._base_storers
        )
        parent_valid = self._parent_valid
        addresses = self._addresses
        alive_now = alive.copy()

        def build() -> np.ndarray:
            if parent_valid:
                return patch_storer_table(
                    parent, addresses, alive_now, leaves, joins
                )
            return alive_storer_table(
                addresses, alive_now, parent.dtype, self.ctx.space_size
            )

        self._storers = self._epoch_tables.get(
            self._fingerprint, build, patched=parent_valid
        )
        self._parent_valid = True
        self._patch_coded()

    # ------------------------------------------------------------------
    # In-place coded-matrix patching

    def _patch_coded(self) -> None:
        """Swap the coded matrix's patch to this epoch's storer set.

        Patches are *absolute* — computed against the pristine matrix,
        never against the previous epoch's patched state — so an epoch
        transition is revert-outstanding-then-apply, O(both patches)
        regardless of how far the two alive sets drifted apart. The
        patch itself only promotes forward entries equal to the
        epoch's storer into the arrive band: a storer can differ from
        the static one only because the static storer died (joins just
        resurrect built-in nodes), so every other divergence is a
        *dead* coded value the kernel's dead-value LUT already
        reroutes. Patch objects are memoized in the epoch-table cache
        under ``"coded:" + fingerprint``, so sweep replicas replaying
        one schedule scan the matrix once per process.
        """
        if self._flat_coded is None:
            return
        self.restore_coded()
        storers = self._storers
        assert storers is not None
        coded = self._coded
        base = self._base_storers
        key = "coded:" + self._fingerprint

        def build():
            return coded_arrive_patch(coded, base, storers)

        patch = self._epoch_tables.get(key, build, patched=True)
        patch.apply(self._flat_coded)
        self._coded_patch = patch
        self._coded_key = key

    def restore_coded(self) -> None:
        """Revert the outstanding coded-matrix patch, if any.

        Idempotent; the engine calls it in a ``finally`` so the shared
        working matrix is pristine again even when a run dies mid-way.
        """
        if self._coded_patch is None:
            return
        self._coded_patch.revert(self._flat_coded)
        if self._coded_key is not None:
            from ..perf.table_cache import log_epoch_event

            log_epoch_event(self._coded_key, "revert")
        self._coded_patch = None
        self._coded_key = None
