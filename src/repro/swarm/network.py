"""The assembled Swarm network: overlay + storage + incentives.

:class:`SwarmNetwork` is the reference simulator's facade. It builds
the forwarding-Kademlia overlay, creates one :class:`SwarmNode` per
address, wires the SWAP incentive mechanism, and exposes the two
operations the paper's workload consists of — uploading and
downloading files — plus the per-node counters and fairness reports
the evaluation reads out.

It favours observability over speed: every chunk movement updates the
full SWAP ledger. For paper-scale runs (millions of chunks) use the
vectorized :mod:`repro.backends.fast` backend, which is
cross-validated against this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import require_non_negative, require_positive
from ..core.fairness import FairnessReport
from ..core.incentives import SwapIncentives
from ..core.policies import make_policy
from ..core.pricing import make_pricing
from ..core.swap import SwapThresholds
from ..errors import ConfigurationError, OverlayError
from ..kademlia.overlay import Overlay, OverlayConfig
from .caching import make_cache
from .chunk import FileManifest
from .node import SwarmNode
from .retrieval import Retrieval, RetrievalProtocol
from .storage import (
    ClosestNodePlacement,
    NeighborhoodPlacement,
    PlacementPolicy,
)

__all__ = ["SwarmNetworkConfig", "DownloadReceipt", "SwarmNetwork"]


@dataclass(frozen=True)
class SwarmNetworkConfig:
    """Everything needed to build a reference Swarm network.

    The defaults are the paper's setup: XOR-distance pricing, the
    zero-proximity payment policy, closest-node placement, implicit
    storage, and no caching.
    """

    overlay: OverlayConfig = field(default_factory=OverlayConfig)
    pricing: str = "xor"
    pricing_base: float = 1.0
    policy: str = "zero-proximity"
    payment_threshold: float = 100.0
    disconnect_threshold: float = 150.0
    transaction_fee: float = 0.0
    cache: str = "none"
    cache_capacity: int = 128
    placement: str = "closest"
    replicas: int = 4
    implicit_storage: bool = True
    store_capacity: int | None = None
    enforce_disconnect: bool = False

    def __post_init__(self) -> None:
        require_positive(self.pricing_base, "pricing_base")
        require_non_negative(self.transaction_fee, "transaction_fee")
        if self.placement not in ("closest", "neighborhood"):
            raise ConfigurationError(
                f"placement must be 'closest' or 'neighborhood', got "
                f"{self.placement!r}"
            )

    def make_placement(self) -> PlacementPolicy:
        """Instantiate the configured placement policy."""
        if self.placement == "closest":
            return ClosestNodePlacement()
        return NeighborhoodPlacement(self.replicas)


@dataclass(frozen=True)
class DownloadReceipt:
    """Outcome of downloading one file."""

    file_id: int
    retrievals: tuple[Retrieval, ...]

    @property
    def chunks(self) -> int:
        """Number of chunks retrieved."""
        return len(self.retrievals)

    @property
    def total_hops(self) -> int:
        """Total edges travelled for the whole file."""
        return sum(r.route.hops for r in self.retrievals)

    @property
    def cache_hits(self) -> int:
        """Chunks served from forwarding caches."""
        return sum(1 for r in self.retrievals if r.source == "cache")


class SwarmNetwork:
    """Reference implementation of the paper's simulated network."""

    def __init__(self, config: SwarmNetworkConfig | None = None) -> None:
        self.config = config if config is not None else SwarmNetworkConfig()
        self.overlay = Overlay.build(self.config.overlay)
        space = self.overlay.space
        cache_factory = lambda: make_cache(  # noqa: E731 - tiny local factory
            self.config.cache, self.config.cache_capacity
        )
        self.nodes: dict[int, SwarmNode] = {
            address: SwarmNode(
                address,
                self.overlay.table(address),
                store_capacity=self.config.store_capacity,
                cache=cache_factory(),
            )
            for address in self.overlay.addresses
        }
        self.placement = self.config.make_placement()
        self.incentives = SwapIncentives(
            pricing=make_pricing(
                self.config.pricing, space, self.config.pricing_base
            ),
            policy=make_policy(self.config.policy),
            thresholds=SwapThresholds(
                payment=self.config.payment_threshold,
                disconnect=self.config.disconnect_threshold,
            ),
            transaction_fee=self.config.transaction_fee,
        )
        service_gate = None
        if self.config.enforce_disconnect:
            def service_gate(provider: int, consumer: int,
                             chunk: int) -> bool:
                # SWAP §III-B: refuse when serving would push the
                # consumer's debt past the disconnect threshold.
                price = self.incentives.pricing.price(provider, chunk)
                return not self.incentives.ledger.would_disconnect(
                    provider, consumer, price
                )
        self.retrieval = RetrievalProtocol(
            self.overlay,
            self.nodes,
            cache_on_path=(self.config.cache != "none"),
            implicit_storage=self.config.implicit_storage,
            service_gate=service_gate,
        )
        self.files_downloaded = 0
        self.files_uploaded = 0

    # ------------------------------------------------------------------
    # Node access

    def node(self, address: int) -> SwarmNode:
        """The node at *address*; raises :class:`OverlayError` if absent."""
        try:
            return self.nodes[address]
        except KeyError:
            raise OverlayError(f"no node at address {address}") from None

    @property
    def addresses(self) -> tuple[int, ...]:
        """All node addresses (dense-index order)."""
        return self.overlay.addresses

    # ------------------------------------------------------------------
    # Content operations

    def upload_file(self, originator: int,
                    manifest: FileManifest) -> DownloadReceipt:
        """Push a file from *originator* to its storers, with accounting.

        Upload forwarding mirrors download (paper §III-A: "Upload is
        done in a similar fashion"): each chunk travels the greedy
        path toward its storer, every hop is priced bandwidth, and the
        originator pays its first hop under the default policy. The
        receipt reuses the download structure with upload routes.
        """
        self.node(originator)
        retrievals = []
        payloads = manifest.chunks or (None,) * len(manifest)
        for address, chunk in zip(manifest.chunk_addresses, payloads):
            # The push path is the same geometric path a retrieval
            # would take with no caches; compute it with storage
            # checks disabled so the chunk reaches the storer even
            # when already present.
            route = self._push_route(originator, address)
            data = chunk.data if chunk is not None else None
            for storer in self.placement.storers(address, self.overlay):
                self.node(storer).store.put(address, data)
            self.incentives.process_route(route)
            retrievals.append(Retrieval(route=route, source="store"))
        self.files_uploaded += 1
        return DownloadReceipt(
            file_id=manifest.file_id, retrievals=tuple(retrievals)
        )

    def _push_route(self, originator: int, chunk_address: int):
        """Greedy path from originator to the chunk's primary storer."""
        from ..kademlia.routing import Router

        router = Router(self.overlay)
        return router.route(originator, chunk_address)

    def download_file(self, originator: int,
                      manifest: FileManifest) -> DownloadReceipt:
        """Download every chunk of *manifest* for *originator*.

        Each retrieval is accounted through the incentive mechanism;
        the receipt carries the travelled routes for inspection.
        """
        self.node(originator)
        retrievals = []
        for address in manifest.chunk_addresses:
            retrieval = self.retrieval.retrieve(originator, address)
            self.incentives.process_route(retrieval.route)
            retrievals.append(retrieval)
        self.files_downloaded += 1
        return DownloadReceipt(
            file_id=manifest.file_id, retrievals=tuple(retrievals)
        )

    # ------------------------------------------------------------------
    # Time and accounting

    def amortize(self, units: float) -> float:
        """Apply time-based amortization to every SWAP channel."""
        return self.incentives.amortize(units)

    # ------------------------------------------------------------------
    # Evaluation views (the paper's measured quantities)

    def income_per_node(self) -> np.ndarray:
        """Income (accounting units) per node, dense-index order (F2)."""
        return np.array(
            self.incentives.incomes(list(self.addresses)), dtype=np.float64
        )

    def forwarded_per_node(self) -> np.ndarray:
        """Chunks forwarded per node (Table I / Fig. 4 quantity)."""
        return np.array(
            self.incentives.ledger.forwarded_vector(list(self.addresses)),
            dtype=np.int64,
        )

    def first_hop_per_node(self) -> np.ndarray:
        """Chunks served as paid first hop per node (F1 denominator)."""
        return np.array(
            self.incentives.ledger.first_hop_vector(list(self.addresses)),
            dtype=np.int64,
        )

    def fairness(self) -> FairnessReport:
        """F1/F2 report with income as the reward (Fig. 5 flavour)."""
        return self.incentives.fairness(list(self.addresses))

    def paper_f1(self) -> FairnessReport:
        """F1 exactly as Fig. 6: forwarded vs first-hop counts."""
        return self.incentives.paper_f1_report(list(self.addresses))

    def average_forwarded_chunks(self) -> float:
        """Network-wide mean of forwarded chunks (Table I cell)."""
        return float(self.forwarded_per_node().mean())
