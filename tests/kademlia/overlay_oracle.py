"""The per-node overlay builder, kept as the test oracle.

This is the original :meth:`repro.kademlia.Overlay.build`, moved here
with its loop unchanged when the production builder switched to
whole-array passes over one proximity matrix. It fills one routing
table at a time, bucket by bucket, then walks every node again to add
its neighbourhood (and the mirrored edges) one peer at a time, which
makes it slow but easy to check by eye against the paper.
:func:`proximity_array`, the per-node proximity helper it runs on,
moved here with it. The differential suite
(``tests/property/test_property_overlay_build.py``) holds the
production overlay identical to it, bucket by bucket and in insertion
order. :func:`is_fully_routable` is the exhaustive reachability check
the overlay tests run on small builds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kademlia.address import AddressSpace, bit_length_array
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.routing import Router
from repro.kademlia.table import RoutingTable

__all__ = ["build", "is_fully_routable", "proximity_array"]


def proximity_array(owner: int, others: np.ndarray, bits: int) -> np.ndarray:
    """Proximity order of *owner* to every address in *others*.

    Vectorized counterpart of :func:`common_prefix_length`; entries
    equal to *owner* get proximity *bits*.
    """
    others = np.asarray(others, dtype=np.uint64)
    return bits - bit_length_array(others ^ np.uint64(owner))


def build(config: OverlayConfig) -> Overlay:
    """Build the overlay deterministically from *config*."""
    space = config.space
    rng = np.random.default_rng(config.seed)
    addresses = space.random_addresses(config.n_nodes, rng, unique=True)
    address_array = np.asarray(addresses, dtype=np.uint64)

    tables: dict[int, RoutingTable] = {}
    for address in addresses:
        tables[address] = _build_table(
            address, address_array, space, config, rng
        )

    _connect_neighborhoods(addresses, tables, config)
    return Overlay(config, addresses, tables)


def _build_table(owner: int, address_array: np.ndarray,
                 space: AddressSpace, config: OverlayConfig,
                 rng: np.random.Generator) -> RoutingTable:
    """Fill one node's buckets with randomly chosen candidates."""
    table = RoutingTable(owner, space, config.limits)
    others = address_array[address_array != np.uint64(owner)]
    proximities = proximity_array(owner, others, space.bits)
    for bucket_index in range(space.bits):
        candidates = others[proximities == bucket_index]
        if candidates.size == 0:
            continue
        capacity = config.limits.capacity(bucket_index)
        if candidates.size > capacity:
            chosen = rng.choice(candidates, size=capacity, replace=False)
        else:
            chosen = candidates
        for peer in chosen:
            table.add(int(peer))
    return table


def _connect_neighborhoods(addresses: Sequence[int],
                           tables: dict[int, RoutingTable],
                           config: OverlayConfig) -> None:
    """Give every node its full, symmetric neighborhood.

    For each node, every other node at proximity order >= the
    node's (population-wide) neighborhood depth is added uncapped.
    With ``symmetric_neighborhood`` the edge is mirrored, modelling
    Swarm's mutual nearest-neighbor connectivity.
    """
    space = config.space
    address_array = np.asarray(addresses, dtype=np.uint64)
    for owner in addresses:
        others = address_array[address_array != np.uint64(owner)]
        proximities = proximity_array(owner, others, space.bits)
        depth = _population_depth(
            proximities, space.bits, config.neighborhood_min
        )
        neighbors = others[proximities >= depth]
        for neighbor in neighbors:
            tables[owner].add_unbounded(int(neighbor))
            if config.symmetric_neighborhood:
                tables[int(neighbor)].add_unbounded(owner)


def _population_depth(proximities: np.ndarray, bits: int,
                      minimum: int) -> int:
    """Neighborhood depth derived from the true node population."""
    cumulative = 0
    for depth in range(bits - 1, -1, -1):
        cumulative += int(np.count_nonzero(proximities == depth))
        if cumulative >= minimum:
            return depth
    return 0


def is_fully_routable(overlay: Overlay) -> bool:
    """Whether every node reaches every other node's address.

    Exhaustive over node pairs, O(n^2) routes, so only for small
    overlays. The router is strict, so a greedy stall raises.
    """
    router = Router(overlay, strict=True)
    return all(
        router.route(origin, destination).storer == destination
        for origin in overlay.addresses
        for destination in overlay.addresses
        if origin != destination
    )
