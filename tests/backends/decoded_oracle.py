"""The decoded three-column dynamics mode, kept as the test oracle.

In the decoded mode every in-flight chunk carries its epoch storer,
each coded gather is decoded back to a raw next hop, a dead next hop
falls back to the (live) storer, and a chunk terminates when its next
hop is its storer. Production routes the same epochs through the
static banded loop over an epoch-patched coded matrix plus a
dead-value LUT (``FastSimulation._route_waves``). This module keeps
the decoded mode, with its own slab loop over an
:class:`~repro.scenarios.plan.EpochPlan` that patches nothing
(``coded=None``), so ``test_patched_dynamics.py`` can hold the two
bit-identical. It decodes static epochs too: locals are prefiltered
against the storer column, then cache hits and the rest each run the
decoded wave loop.
"""

from __future__ import annotations

import numpy as np

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation
from repro.backends.result import SimulationResult
from repro.scenarios.base import ScenarioContext
from repro.scenarios.plan import EpochPlan

__all__ = ["run_decoded"]


def run_decoded(config: FastSimulationConfig) -> SimulationResult:
    """*config*'s batch run, routed entirely by the decoded mode."""
    simulation = FastSimulation(config)
    table = simulation.table
    result = simulation.new_result()
    file_origins, sizes, targets = simulation._flatten_workload(
        config.workload()
    )
    result.files += len(sizes)
    origins = np.repeat(file_origins, sizes)
    scenario = config.scenario_stack()
    if scenario is None:
        result.chunks += int(origins.size)
        _route_batch(simulation, origins, targets, table.storer[targets],
                     result)
        return result

    starts = range(0, len(sizes), config.batch_files)
    plan = EpochPlan(
        scenario,
        ScenarioContext(
            n_nodes=table.n_nodes,
            n_epochs=len(starts),
            space_size=simulation.space.size,
            overlay_seed=config.overlay_seed,
        ),
        table_fingerprint=simulation.overlay.fingerprint(),
        base_storers=table.storer,
        addresses=simulation.overlay.address_array(),
        coded=None,
    )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    for epoch, start in enumerate(starts):
        stop = min(start + config.batch_files, len(sizes))
        lo, hi = int(offsets[start]), int(offsets[stop])
        state = plan.epoch(epoch)
        slab_origins = origins[lo:hi]
        slab_targets = targets[lo:hi]
        result.chunks += int(slab_origins.size)
        if state.origin_map is not None:
            slab_origins = state.origin_map[slab_origins].astype(
                table.entry_dtype
            )
        alive = state.alive
        storer_table = (table.storer if state.storers is None
                        else state.storers)
        if alive is not None:
            if not alive.any():
                result.unavailable += int(slab_origins.size)
                continue
            dead = ~alive[slab_origins] | ~alive[storer_table[slab_targets]]
            result.unavailable += int(np.count_nonzero(dead))
            slab_origins = slab_origins[~dead]
            slab_targets = slab_targets[~dead]
        cache = state.cache
        _route_batch(
            simulation, slab_origins, slab_targets,
            storer_table[slab_targets], result, alive=alive,
            cached=None if cache is None else cache.mask,
            unpaid_origins=state.unpaid,
        )
        if cache is not None:
            cache.insert(slab_targets)
    return result


def _route_batch(simulation: FastSimulation, origins: np.ndarray,
                 targets: np.ndarray, storers: np.ndarray,
                 result: SimulationResult, *,
                 alive: np.ndarray | None = None,
                 cached: np.ndarray | None = None,
                 unpaid_origins: np.ndarray | None = None) -> None:
    """Prefilter locals, split off cache hits, route the rest."""
    if origins.size == 0:
        return
    table = simulation.table
    dtype = table.entry_dtype
    order = np.argsort(targets, kind="stable")
    tg = targets[order]
    cur = origins[order].astype(dtype)
    st = storers[order].astype(dtype)
    row = np.multiply(tg, table.n_nodes, dtype=np.intp)

    keep = st != cur
    local_count = int(tg.size - np.count_nonzero(keep))
    if local_count:
        result.local_hits += local_count
        result.hop_histogram[0] = (
            result.hop_histogram.get(0, 0) + local_count
        )
    if cached is not None:
        hits = keep & cached[tg]
        if hits.any():
            _route_waves(simulation, cur[hits], tg[hits], row[hits],
                         st[hits], result, unpaid_origins, alive=alive,
                         first_hop_serves=True)
            keep &= ~hits
    if keep.any():
        _route_waves(simulation, cur[keep], tg[keep], row[keep], st[keep],
                     result, unpaid_origins, alive=alive)


def _route_waves(simulation: FastSimulation, cur: np.ndarray,
                 tg: np.ndarray, row: np.ndarray, st: np.ndarray,
                 result: SimulationResult,
                 unpaid_origins: np.ndarray | None, *,
                 alive: np.ndarray | None = None,
                 first_hop_serves: bool = False) -> None:
    """Decoded hop waves: raw next hops, dead ones fall back to *st*."""
    table = simulation.table
    dtype = table.entry_dtype
    n = table.n_nodes
    first_tg = tg
    hop = 0
    while cur.size:
        hop += 1
        nxt = table.flat_coded[row + cur]
        stalled = nxt >= dtype.type(2 * n)
        arrived_band = (nxt >= dtype.type(n)) & ~stalled
        nxt[arrived_band] -= dtype.type(n)
        if alive is not None:
            # A dead next hop behaves like a greedy terminal: the
            # request jumps straight to the (live) storer.
            dead = np.zeros_like(stalled)
            dead[~stalled] = ~alive[nxt[~stalled]]
            stalled |= dead
        n_stalled = int(np.count_nonzero(stalled))
        if n_stalled:
            result.fallbacks += n_stalled
            nxt[stalled] = st[stalled]
        servers = nxt.astype(np.intp)
        wave_counts = np.bincount(servers, minlength=n)
        result.forwarded += wave_counts
        result.total_hops += int(cur.size)
        if hop == 1:
            result.first_hop += wave_counts
            prices = simulation._first_hop_prices(servers, first_tg, cur,
                                                  unpaid_origins)
            simulation._pay_first_hop(result, servers, cur, prices)
            if first_hop_serves:
                result.cache_hits += int(cur.size)
                result.hop_histogram[1] = (
                    result.hop_histogram.get(1, 0) + int(cur.size)
                )
                return
        keep = nxt != st
        arrived = int(cur.size - np.count_nonzero(keep))
        if arrived:
            result.hop_histogram[hop] = (
                result.hop_histogram.get(hop, 0) + arrived
            )
        cur, row, st = nxt[keep], row[keep], st[keep]
