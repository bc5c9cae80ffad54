"""Ablation and extension experiments (paper §V + DESIGN.md §3).

These go beyond the paper's published grid, covering the future-work
directions §V sketches and the design choices this reproduction makes:

* :func:`run_k_sweep` — fairness and bandwidth across bucket sizes;
* :func:`run_bucket0` — increase k only for bucket zero (§V idea);
* :func:`run_pricing` — pricing-strategy ablation;
* :func:`run_popularity` — Zipf content popularity vs uniform;
* :func:`run_caching` — forwarding caches under popular content
  (reference simulator — caches need real stores);
* :func:`run_freeriders` — misbehaving peers that never pay;
* :func:`run_baselines` — SWAP vs tit-for-tat / Filecoin-style /
  idealized reference mechanisms on the fairness properties.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reports import Table
from ..backends import get_backend, run_simulation
from ..baselines.filecoin import FilecoinConfig, FilecoinMechanism
from ..baselines.flat import EqualSplitMechanism, PerChunkRewardMechanism
from ..baselines.freerider import FreeRiderPlan, apply_free_riders
from ..baselines.tit_for_tat import TitForTatConfig, TitForTatSwarm
from ..core.fairness import evaluate_fairness, gini
from ..kademlia.overlay import OverlayConfig
from ..kademlia.routing import Router
from ..swarm.chunk import FileManifest
from ..swarm.network import SwarmNetwork, SwarmNetworkConfig
from ..backends.fast import FastSimulation, FastSimulationConfig
from .report import ExperimentReport

__all__ = [
    "run_k_sweep",
    "run_bucket0",
    "run_pricing",
    "run_popularity",
    "run_caching",
    "run_caching_fast",
    "run_freeriders",
    "run_baselines",
]


def run_k_sweep(n_files: int = 2000, n_nodes: int = 1000,
                bucket_sizes: tuple[int, ...] = (2, 4, 8, 16, 20, 32),
                originator_share: float = 0.2,
                backend: str = "fast") -> ExperimentReport:
    """Fairness and bandwidth as a function of bucket size k."""
    report = ExperimentReport(
        name="k_sweep",
        title=(
            f"Bucket-size sweep ({n_files} downloads, "
            f"{originator_share:.0%} originators)"
        ),
    )
    table = Table(
        title="k vs fairness and bandwidth",
        headers=["k", "F2 Gini", "F1 Gini", "mean forwarded", "mean hops",
                 "mean degree"],
    )
    series: dict[int, dict[str, float]] = {}
    for bucket_size in bucket_sizes:
        config = FastSimulationConfig(
            n_nodes=n_nodes,
            bucket_size=bucket_size,
            originator_share=originator_share,
            n_files=n_files,
        )
        engine = get_backend(backend).prepare(config)
        result = engine.run()
        degrees = [
            len(engine.overlay.table(a))
            for a in engine.overlay.addresses
        ]
        mean_degree = float(np.mean(degrees))
        table.add_row(
            bucket_size, result.f2_gini(), result.f1_gini(),
            round(result.average_forwarded_chunks()),
            round(result.mean_hops, 2), round(mean_degree, 1),
        )
        series[bucket_size] = {
            "f2": result.f2_gini(),
            "f1": result.f1_gini(),
            "forwarded": result.average_forwarded_chunks(),
            "hops": result.mean_hops,
            "degree": mean_degree,
        }
    report.add_table(table)
    report.add_note(
        "larger k buys fairness and shorter routes at the cost of more "
        "open connections (paper §V trade-off)"
    )
    report.data["series"] = series
    return report


def run_bucket0(n_files: int = 2000, n_nodes: int = 1000,
                bucket_zero_sizes: tuple[int, ...] = (4, 8, 16, 20),
                originator_share: float = 0.2,
                backend: str = "fast") -> ExperimentReport:
    """§V ablation: increase k only for bucket zero.

    The zero-bucket serves roughly half of all first hops, so widening
    it alone should capture much of the k=20 fairness gain at a
    fraction of the connection cost.
    """
    report = ExperimentReport(
        name="bucket0",
        title=(
            f"Bucket-zero-only widening (base k=4, {n_files} downloads, "
            f"{originator_share:.0%} originators)"
        ),
    )
    table = Table(
        title="k0 vs fairness and bandwidth (other buckets at k=4)",
        headers=["bucket-0 size", "F2 Gini", "F1 Gini", "mean forwarded",
                 "mean hops"],
    )
    series: dict[int, dict[str, float]] = {}
    for bucket_zero in bucket_zero_sizes:
        config = FastSimulationConfig(
            n_nodes=n_nodes,
            bucket_size=4,
            bucket_zero=bucket_zero,
            originator_share=originator_share,
            n_files=n_files,
        )
        result = run_simulation(config, backend=backend)
        table.add_row(
            bucket_zero, result.f2_gini(), result.f1_gini(),
            round(result.average_forwarded_chunks()),
            round(result.mean_hops, 2),
        )
        series[bucket_zero] = {
            "f2": result.f2_gini(),
            "f1": result.f1_gini(),
            "forwarded": result.average_forwarded_chunks(),
        }
    report.add_table(table)
    report.data["series"] = series
    return report


def run_pricing(n_files: int = 2000, n_nodes: int = 1000,
                originator_share: float = 0.2,
                backend: str = "fast") -> ExperimentReport:
    """How the pricing strategy shapes income fairness (F2)."""
    report = ExperimentReport(
        name="pricing",
        title=f"Pricing-strategy ablation ({n_files} downloads)",
    )
    table = Table(
        title="pricing vs F2 Gini (k=4 and k=20)",
        headers=["pricing", "F2 Gini k=4", "F2 Gini k=20"],
    )
    series: dict[str, dict[int, float]] = {}
    for pricing in ("xor", "proximity", "flat"):
        row: dict[int, float] = {}
        for bucket_size in (4, 20):
            config = FastSimulationConfig(
                n_nodes=n_nodes,
                bucket_size=bucket_size,
                originator_share=originator_share,
                n_files=n_files,
                pricing=pricing,
            )
            row[bucket_size] = run_simulation(
                config, backend=backend
            ).f2_gini()
        table.add_row(pricing, row[4], row[20])
        series[pricing] = row
    report.add_table(table)
    report.add_note(
        "flat pricing isolates topology effects; xor/proximity add "
        "price dispersion on top of traffic dispersion"
    )
    report.data["series"] = series
    return report


def run_popularity(n_files: int = 2000, n_nodes: int = 1000,
                   catalog_size: int = 200,
                   exponents: tuple[float, ...] = (0.5, 1.0, 1.5),
                   backend: str = "fast") -> ExperimentReport:
    """Zipf content popularity vs the paper's uniform chunks (§V)."""
    report = ExperimentReport(
        name="popularity",
        title=f"Content-popularity extension ({n_files} downloads)",
    )
    table = Table(
        title="workload vs fairness (k=4, 20% originators)",
        headers=["workload", "F2 Gini", "F1 Gini", "mean forwarded"],
    )
    baseline = run_simulation(FastSimulationConfig(
        n_nodes=n_nodes, bucket_size=4, originator_share=0.2,
        n_files=n_files,
    ), backend=backend)
    table.add_row(
        "uniform (paper)", baseline.f2_gini(), baseline.f1_gini(),
        round(baseline.average_forwarded_chunks()),
    )
    series = {"uniform": baseline.f2_gini()}
    for exponent in exponents:
        result = run_simulation(FastSimulationConfig(
            n_nodes=n_nodes, bucket_size=4, originator_share=0.2,
            n_files=n_files, catalog_size=catalog_size,
            catalog_exponent=exponent,
        ), backend=backend)
        label = f"zipf({exponent}), catalog={catalog_size}"
        table.add_row(
            label, result.f2_gini(), result.f1_gini(),
            round(result.average_forwarded_chunks()),
        )
        series[label] = result.f2_gini()
    report.add_table(table)
    report.data["series"] = series
    return report


def run_caching(n_files: int = 150, n_nodes: int = 200,
                catalog_size: int = 40,
                cache_capacity: int = 64) -> ExperimentReport:
    """Forwarding caches under popular content (reference simulator).

    Caches change which node serves a chunk, so this runs on the
    reference :class:`SwarmNetwork` where stores and caches are real.
    Popularity is required for caches to matter; the workload uses a
    small Zipf catalog.
    """
    report = ExperimentReport(
        name="caching",
        title=(
            f"Forwarding-cache extension ({n_files} downloads, "
            f"{n_nodes} nodes, zipf catalog of {catalog_size})"
        ),
    )
    table = Table(
        title="cache policy vs traffic and fairness (k=4)",
        headers=["cache", "mean forwarded", "cache hits", "hops saved",
                 "F2 Gini"],
    )
    overlay = OverlayConfig.paper(bucket_size=4)
    overlay = OverlayConfig(
        n_nodes=n_nodes, bits=overlay.bits, limits=overlay.limits,
        seed=overlay.seed,
    )
    series: dict[str, dict[str, float]] = {}
    for cache in ("none", "lru", "lfu"):
        network = SwarmNetwork(SwarmNetworkConfig(
            overlay=overlay, cache=cache, cache_capacity=cache_capacity,
        ))
        rng = np.random.default_rng(123)
        catalog = [
            tuple(int(a) for a in
                  rng.integers(0, network.overlay.space.size, size=30))
            for _ in range(catalog_size)
        ]
        ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
        weights = ranks ** -1.0
        weights /= weights.sum()
        nodes = network.overlay.address_array()
        for file_id in range(n_files):
            originator = int(rng.choice(nodes))
            addresses = catalog[int(rng.choice(catalog_size, p=weights))]
            manifest = FileManifest(
                file_id=file_id, chunk_addresses=addresses
            )
            network.download_file(originator, manifest)
        stats = network.retrieval.stats
        f2 = gini(network.income_per_node())
        table.add_row(
            cache, round(network.average_forwarded_chunks(), 1),
            stats.cache_hits, stats.hops_saved_by_cache, f2,
        )
        series[cache] = {
            "forwarded": network.average_forwarded_chunks(),
            "cache_hits": float(stats.cache_hits),
            "hops_saved": float(stats.hops_saved_by_cache),
            "f2": f2,
        }
    report.add_table(table)
    report.add_note(
        "caches shorten repeat routes, reducing total forwarded chunks "
        "- the 'reduced number of forwarded requests' the paper expects"
    )
    report.data["series"] = series
    return report


def run_caching_fast(n_files: int = 2000, n_nodes: int = 1000,
                     catalog_size: int = 200,
                     catalog_exponent: float = 1.0,
                     batch_files: int = 256) -> ExperimentReport:
    """Path caching at paper scale on the vectorized backend.

    The fast engine models forwarding caches as a cached-chunk mask:
    once retrieved, a chunk is served by the originator's first hop in
    one hop. Under a Zipf catalog this reproduces the §V effect — a
    reduced number of forwarded requests — at volumes the reference
    simulator cannot reach.
    """
    report = ExperimentReport(
        name="caching_fast",
        title=(
            f"Path caching, vectorized backend ({n_files} downloads, "
            f"{n_nodes} nodes, zipf catalog of {catalog_size})"
        ),
    )
    table = Table(
        title="caching vs traffic (k=4, zipf popularity)",
        headers=["caching", "mean forwarded", "cache hits", "mean hops",
                 "F2 Gini"],
    )
    series: dict[str, dict[str, float]] = {}
    for label, caching in (("off", False), ("on", True)):
        # A thin scenario config — "caching" in the composition
        # grammar is bit-identical to the legacy caching=True field
        # (pinned by the golden fixtures).
        result = run_simulation(FastSimulationConfig(
            n_nodes=n_nodes, bucket_size=4, originator_share=0.2,
            n_files=n_files, catalog_size=catalog_size,
            catalog_exponent=catalog_exponent,
            scenario="caching" if caching else "",
            batch_files=batch_files,
        ))
        table.add_row(
            label, round(result.average_forwarded_chunks(), 1),
            result.cache_hits, round(result.mean_hops, 2),
            result.f2_gini(),
        )
        series[label] = {
            "forwarded": result.average_forwarded_chunks(),
            "cache_hits": float(result.cache_hits),
            "hops": result.mean_hops,
            "f2": result.f2_gini(),
        }
    report.add_table(table)
    report.add_note(
        "cache hits short-circuit repeat retrievals at the first hop, "
        "cutting total forwarded chunks (paper §V expectation) at "
        "paper scale"
    )
    report.data["series"] = series
    return report


def run_freeriders(n_files: int = 150, n_nodes: int = 200,
                   fractions: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
                   ) -> ExperimentReport:
    """§V misbehaviour thread: originators that never pay."""
    report = ExperimentReport(
        name="freeriders",
        title=f"Free-rider extension ({n_files} downloads, {n_nodes} nodes)",
    )
    table = Table(
        title="free-rider fraction vs fairness and defaults (k=4)",
        headers=["fraction", "F2 Gini", "F1 Gini", "defaults",
                 "unpaid debt"],
    )
    overlay = OverlayConfig(n_nodes=n_nodes, bits=16, seed=42)
    series: dict[float, dict[str, float]] = {}
    for fraction in fractions:
        network = SwarmNetwork(SwarmNetworkConfig(overlay=overlay))
        riders = apply_free_riders(
            network.incentives, list(network.addresses),
            FreeRiderPlan(fraction=fraction),
        )
        rng = np.random.default_rng(7)
        nodes = network.overlay.address_array()
        for file_id in range(n_files):
            originator = int(rng.choice(nodes))
            addresses = tuple(
                int(a) for a in
                rng.integers(0, network.overlay.space.size, size=40)
            )
            network.download_file(
                originator, FileManifest(file_id=file_id,
                                         chunk_addresses=addresses)
            )
        fairness = network.fairness()
        f1 = network.paper_f1()
        defaults = sum(network.incentives.defaults.values())
        unpaid = sum(
            max(channel.balance_of(channel.low), 0.0)
            + max(channel.balance_of(channel.high), 0.0)
            for channel in network.incentives.ledger.channels()
        )
        table.add_row(
            f"{fraction:.0%}", fairness.f2_gini, f1.f1_gini, defaults,
            round(unpaid, 2),
        )
        series[fraction] = {
            "f2": fairness.f2_gini,
            "f1": f1.f1_gini,
            "defaults": float(defaults),
            "riders": float(len(riders)),
        }
    report.add_table(table)
    report.add_note(
        "free-riding originators push their first hops' earnings to "
        "zero-settlement debt, raising income inequality (F2)"
    )
    report.data["series"] = series
    return report


def run_baselines(n_files: int = 1000, n_nodes: int = 300) -> ExperimentReport:
    """Mechanism comparison on identical routed traffic.

    SWAP-style first-hop payment, a perfectly proportional per-chunk
    reward, an equal-split pool, and Filecoin-style storage rewards
    all process the same routes; BitTorrent tit-for-tat runs its own
    swarm (it has no routing) and is reported on its native traffic.
    """
    report = ExperimentReport(
        name="baselines",
        title=f"Incentive-mechanism comparison ({n_files} downloads)",
    )
    config = FastSimulationConfig(
        n_nodes=n_nodes, bucket_size=4, originator_share=0.2,
        n_files=n_files, file_min=20, file_max=60,
    )
    simulation = FastSimulation(config)
    swap_result = simulation.run()
    overlay = simulation.overlay
    nodes = list(overlay.addresses)

    per_chunk = PerChunkRewardMechanism()
    equal_split = EqualSplitMechanism()
    power = {
        address: float(count)
        for address, count in zip(
            nodes, np.bincount(
                simulation.table.storer, minlength=len(nodes)
            )
        )
    }
    filecoin = FilecoinMechanism(power, FilecoinConfig())
    router = Router(overlay)
    workload = config.workload()
    for event in workload.events(overlay.address_array(), overlay.space):
        for chunk in event.chunk_addresses:
            route = router.route(int(event.originator), int(chunk))
            per_chunk.process_route(route)
            equal_split.process_route(route)
            filecoin.process_route(route)

    table = Table(
        title="mechanism vs fairness (same traffic where applicable)",
        headers=["mechanism", "F2 Gini", "F1 Gini"],
    )
    swap_f2 = swap_result.f2_gini()
    swap_f1 = swap_result.f1_gini()
    table.add_row("SWAP zero-proximity (paper)", swap_f2, swap_f1)
    rows = {"swap": (swap_f2, swap_f1)}
    for label, mechanism in (
        ("per-chunk reward (F1-ideal)", per_chunk),
        ("equal split (F2-ideal)", equal_split),
        ("Filecoin-style", filecoin),
    ):
        incomes = mechanism.incomes(nodes)
        contributions = mechanism.contributions(nodes)
        fairness = evaluate_fairness(contributions, incomes)
        table.add_row(label, fairness.f2_gini, fairness.f1_gini)
        rows[label] = (fairness.f2_gini, fairness.f1_gini)

    tft = TitForTatSwarm(TitForTatConfig(n_peers=60, n_pieces=120))
    tft.run()
    tft_fairness = evaluate_fairness(tft.contributions(), tft.incomes())
    table.add_row(
        "BitTorrent tit-for-tat (own swarm)",
        tft_fairness.f2_gini, tft_fairness.f1_gini,
    )
    rows["tit-for-tat"] = (tft_fairness.f2_gini, tft_fairness.f1_gini)
    report.add_table(table)
    report.add_note(
        "per-chunk reward bounds F1 at 0; equal split bounds F2 at 0; "
        "real mechanisms trade between the two"
    )
    report.data["rows"] = rows
    report.data["tft_completion"] = tft.completion_fraction()
    return report
