"""Extension experiments beyond the paper's published evaluation.

These exercise the substrates built for the paper's §V future-work
directions and this reproduction's own design checks:

* :func:`run_overhead` — §V thread 1: net earnings after connection,
  transaction, and channel-state overhead, k=4 vs k=20;
* :func:`run_churn` — §II motivation: availability when a fresh
  random offline set is drawn every epoch, with and without storers
  re-homed to the closest live node;
* :func:`run_privacy` — §III-A claim: identity exposure of iterative
  Kademlia lookups versus forwarding Kademlia;
* :func:`run_latency` — retrieval latency across bucket sizes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..analysis.reports import Table
from ..backends import get_backend, run_simulation
from ..core.overhead import OverheadModel, overhead_report
from ..kademlia.iterative import IterativeLookup
from ..kademlia.overlay import OverlayConfig
from ..kademlia.routing import Router
from ..backends.fast import FastSimulationConfig
from .report import ExperimentReport

__all__ = [
    "run_overhead",
    "run_churn",
    "run_privacy",
    "run_latency",
]


def run_latency(n_files: int = 2000, n_nodes: int = 1000,
                bucket_sizes: tuple[int, ...] = (2, 4, 8, 20),
                per_hop_ms: float = 30.0,
                backend: str = "fast") -> ExperimentReport:
    """Latency flip side of the §V trade-off: hops cost round trips.

    Converts each configuration's per-chunk hop histogram into a
    retrieval-latency distribution under a fixed per-hop delay. With
    ``backend="time"`` the per-hop delay also drives the time-domain
    engine, and a second table reports the *measured* per-chunk
    percentiles next to the model's — identical under unbounded
    bandwidth (minus the model's fixed base cost), diverging once
    bandwidth or concurrency limits are configured.
    """
    from ..analysis.latency import LatencyModel, latency_distribution
    from ..analysis.reports import Table as _Table

    report = ExperimentReport(
        name="latency",
        title=(
            f"Retrieval latency vs bucket size ({n_files} downloads, "
            f"{per_hop_ms:.0f} ms per hop)"
        ),
    )
    model = LatencyModel(per_hop_ms=per_hop_ms)
    table = _Table(
        title="chunk retrieval latency (20% originators)",
        headers=["k", "mean hops", "mean ms", "p50 ms", "p90 ms",
                 "p99 ms"],
    )
    measured = _Table(
        title="measured per-chunk latency (time backend)",
        headers=["k", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
    )
    series: dict[int, dict[str, float]] = {}
    for bucket_size in bucket_sizes:
        result = run_simulation(FastSimulationConfig(
            n_nodes=n_nodes, bucket_size=bucket_size,
            originator_share=0.2, n_files=n_files,
            hop_latency_ms=per_hop_ms,
        ), backend=backend)
        distribution = latency_distribution(result.hop_histogram, model)
        table.add_row(
            bucket_size, round(result.mean_hops, 2),
            round(distribution.mean_ms, 1),
            distribution.p50_ms, distribution.p90_ms,
            distribution.p99_ms,
        )
        series[bucket_size] = {
            "hops": result.mean_hops,
            "mean_ms": distribution.mean_ms,
            "p99_ms": distribution.p99_ms,
        }
        if result.latency_ms is not None and result.latency_ms.size:
            stats = result.latency_stats()
            measured.add_row(
                bucket_size, round(stats.mean_ms, 1),
                round(stats.p50_ms, 1), round(stats.p95_ms, 1),
                round(stats.p99_ms, 1),
            )
            series[bucket_size]["measured_p50_ms"] = stats.p50_ms
            series[bucket_size]["measured_p99_ms"] = stats.p99_ms
    report.add_table(table)
    if measured.rows:
        report.add_table(measured)
    report.add_note(
        "larger buckets shorten routes, cutting tail latency - the "
        "performance companion to the paper's fairness result"
    )
    report.data["series"] = series
    return report


def run_overhead(n_files: int = 2000, n_nodes: int = 1000,
                 transaction_cost: float = 0.01,
                 keepalive_cost: float = 0.001,
                 backend: str = "fast") -> ExperimentReport:
    """§V thread 1: does the k=20 fairness gain survive its overhead?"""
    report = ExperimentReport(
        name="overhead",
        title=(
            f"Overhead-adjusted earnings ({n_files} downloads, "
            f"tx cost {transaction_cost}, keepalive {keepalive_cost})"
        ),
    )
    model = OverheadModel(
        keepalive_cost_per_connection=keepalive_cost,
        transaction_cost=transaction_cost,
    )
    table = Table(
        title="gross vs net earnings (20% originators)",
        headers=["k", "mean income", "mean net income", "overhead share",
                 "underwater nodes", "F2 Gini (net clipped)"],
    )
    series: dict[int, dict[str, float]] = {}
    for bucket_size in (4, 20):
        engine = get_backend(backend).prepare(FastSimulationConfig(
            n_nodes=n_nodes, bucket_size=bucket_size,
            originator_share=0.2, n_files=n_files,
        ))
        result = engine.run()
        overhead = overhead_report(
            engine.overlay, result.income, result.first_hop, model
        )
        from ..core.fairness import gini

        net_clipped = np.maximum(overhead.net_income, 0.0)
        net_gini = gini(net_clipped)
        table.add_row(
            bucket_size,
            round(float(result.income.mean()), 4),
            round(overhead.mean_net_income(), 4),
            f"{overhead.overhead_share():.1%}",
            overhead.underwater_nodes,
            net_gini,
        )
        series[bucket_size] = {
            "gross": float(result.income.mean()),
            "net": overhead.mean_net_income(),
            "share": overhead.overhead_share(),
            "underwater": float(overhead.underwater_nodes),
            "net_gini": net_gini,
        }
    report.add_table(table)
    report.add_note(
        "k=20 opens ~4x more connections; whether its fairness gain "
        "survives depends on the keepalive/transaction cost regime "
        "(the trade-off §V predicts)"
    )
    report.data["series"] = series
    return report


def run_churn(n_files: int = 2000, n_nodes: int = 1000,
              offline_fractions: tuple[float, ...] = (0.0, 0.1, 0.3),
              batch_files: int = 256) -> ExperimentReport:
    """§II churn motivation: availability under per-epoch churn.

    Each batch of files sees a fresh node-alive mask; a chunk whose
    single storer is offline is unavailable (the paper's closest-node
    placement has no redundancy). The re-replication column recomputes
    storers over the live population — Swarm's neighborhood answer —
    and recovers most of the lost availability.
    """
    report = ExperimentReport(
        name="churn",
        title=f"Churn extension ({n_files} downloads, {n_nodes} nodes)",
    )
    table = Table(
        title="offline fraction vs availability (k=4)",
        headers=["offline", "availability", "unavailable",
                 "availability (re-replicated)", "fallback hops"],
    )
    series: dict[float, dict[str, float]] = {}
    for fraction in offline_fractions:
        # A thin scenario config: the same composition grammar any
        # other dynamic uses.
        base = FastSimulationConfig(
            n_nodes=n_nodes, bucket_size=4, n_files=n_files,
            scenario=f"churn:rate={fraction}", batch_files=batch_files,
        )
        result = run_simulation(base)
        rereplicated = run_simulation(dataclasses.replace(
            base, scenario=f"churn:rate={fraction},recompute=true"
        ))
        table.add_row(
            f"{fraction:.0%}", f"{result.availability:.1%}",
            result.unavailable, f"{rereplicated.availability:.1%}",
            result.fallbacks,
        )
        series[fraction] = {
            "availability": result.availability,
            "unavailable": float(result.unavailable),
            "rereplicated_availability": rereplicated.availability,
        }
    report.add_table(table)
    report.add_note(
        "single-storer placement loses availability roughly with the "
        "offline fraction; recomputing storers over the live "
        "population (neighborhood re-replication) leaves only offline "
        "originators unable to download"
    )
    report.data["series"] = series
    return report


def run_privacy(n_files: int = 300, n_nodes: int = 500,
                lookups_per_file: int = 10) -> ExperimentReport:
    """§III-A: identity exposure, iterative vs forwarding Kademlia."""
    report = ExperimentReport(
        name="privacy",
        title=(
            f"Privacy comparison: iterative vs forwarding Kademlia "
            f"({n_files * lookups_per_file} lookups)"
        ),
    )
    from ..kademlia.overlay import Overlay

    overlay = Overlay.build(OverlayConfig(n_nodes=n_nodes, bits=14, seed=3))
    router = Router(overlay)
    lookup = IterativeLookup(overlay)
    rng = np.random.default_rng(9)
    exposures = []
    round_trips = []
    forwarding_hops = []
    for _ in range(n_files):
        requester = int(rng.choice(overlay.address_array()))
        for chunk in rng.integers(0, overlay.space.size,
                                  size=lookups_per_file):
            result = lookup.lookup(requester, int(chunk))
            route = router.route(requester, int(chunk))
            assert result.found == route.storer
            exposures.append(result.identity_exposure)
            round_trips.append(result.round_trips)
            forwarding_hops.append(route.hops)
    table = Table(
        title="identity exposure and latency per retrieval",
        headers=["scheme", "nodes learning requester", "rounds/hops"],
    )
    table.add_row(
        "iterative Kademlia",
        round(float(np.mean(exposures)), 2),
        round(float(np.mean(round_trips)), 2),
    )
    table.add_row(
        "forwarding Kademlia (Swarm)",
        1.0,  # only the first hop ever sees the requester
        round(float(np.mean(forwarding_hops)), 2),
    )
    report.add_table(table)
    report.add_note(
        "forwarding Kademlia exposes the requester to exactly one peer "
        "per retrieval; iterative lookups expose it to every queried "
        "node (paper §III-A's privacy argument, quantified)"
    )
    report.data["mean_exposure"] = float(np.mean(exposures))
    report.data["mean_rounds"] = float(np.mean(round_trips))
    report.data["mean_hops"] = float(np.mean(forwarding_hops))
    return report
