"""Backend adapter for the object-oriented reference simulator.

Wraps :class:`~repro.swarm.network.SwarmNetwork` behind the
:class:`~repro.backends.base.SimulationBackend` protocol so the same
experiment runners, sweeps, and equivalence tests can drive the
reference implementation and the vectorized engine interchangeably.
Every chunk movement still updates the full SWAP ledger — use this for
observability and cross-validation, not for paper-scale volume.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ConfigurationError
from ..swarm.chunk import FileManifest
from ..swarm.network import SwarmNetwork, SwarmNetworkConfig
from .base import SimulationBackend, register_backend
from .config import FastSimulationConfig
from .result import SimulationResult

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(SimulationBackend):
    """The observable SwarmNetwork behind the backend protocol."""

    name = "reference"
    description = "object-oriented SwarmNetwork with full SWAP accounting"

    network: SwarmNetwork | None = None

    def __init__(self, cache: str = "none", cache_capacity: int = 128) -> None:
        self._cache = cache
        self._cache_capacity = cache_capacity

    def prepare(self, config: FastSimulationConfig) -> "ReferenceBackend":
        if config.has_scenarios:
            raise ConfigurationError(
                f"scenario {config.scenario!r} needs the vectorized "
                "backend; the reference network models per-node caches "
                "via ReferenceBackend(cache='lru'|'lfu') and has no churn"
            )
        self.config = config
        self.network = SwarmNetwork(SwarmNetworkConfig(
            overlay=config.overlay_config(),
            pricing=config.pricing,
            pricing_base=config.pricing_base,
            cache=self._cache,
            cache_capacity=self._cache_capacity,
        ))
        self.overlay = self.network.overlay
        return self

    def run(self, workload=None) -> SimulationResult:
        config = self._require_prepared()
        network = self.network
        assert network is not None
        started = time.perf_counter()
        if workload is None:
            workload = config.workload()
        nodes = network.overlay.address_array()
        hop_histogram: dict[int, int] = {}
        files = chunks = total_hops = local_hits = cache_hits = 0
        for event in workload.events(nodes, network.overlay.space):
            manifest = FileManifest(
                file_id=event.file_id,
                chunk_addresses=tuple(
                    int(a) for a in event.chunk_addresses
                ),
            )
            receipt = network.download_file(int(event.originator), manifest)
            files += 1
            chunks += receipt.chunks
            cache_hits += receipt.cache_hits
            for retrieval in receipt.retrievals:
                hops = retrieval.route.hops
                total_hops += hops
                hop_histogram[hops] = hop_histogram.get(hops, 0) + 1
                if hops == 0:
                    local_hits += 1
        addresses = list(network.addresses)
        ledger = network.incentives.ledger
        expenditure = np.array(
            [ledger.expenditure[address] for address in addresses],
            dtype=np.float64,
        )
        return SimulationResult(
            config=config,
            node_addresses=np.asarray(addresses, dtype=np.int64),
            forwarded=network.forwarded_per_node(),
            first_hop=network.first_hop_per_node(),
            income=network.income_per_node(),
            expenditure=expenditure,
            files=files,
            chunks=chunks,
            total_hops=total_hops,
            local_hits=local_hits,
            cache_hits=cache_hits,
            hop_histogram=hop_histogram,
            elapsed_seconds=time.perf_counter() - started,
        )
