"""Experiment registry: names -> runners.

The single source of truth the CLI and tests use to find
experiments. Every entry maps an experiment name to its runner and a
short description, one entry per question: the paper's artifacts
keep their names (``table1``, ``fig3``-``fig6``, ``headline``), and
each extension has one runner. Runners accept ``n_files`` /
``n_nodes`` keyword arguments so callers can scale them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ExperimentError
from . import ablations, extensions, fig3, paper, scenarios, storage, sweeps
from .report import ExperimentReport

__all__ = ["ExperimentSpec", "REGISTRY", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    ``supports_backend`` marks runners that accept a ``backend``
    keyword (a :mod:`repro.backends` registry name) to select the
    simulation engine; the CLI only forwards ``--backend`` to those.
    """

    name: str
    description: str
    runner: Callable[..., ExperimentReport]
    paper_artifact: str | None = None
    supports_backend: bool = False


REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="table1",
            description="Average forwarded chunks per configuration",
            runner=paper.run_table1,
            paper_artifact="Table I",
            supports_backend=True,
        ),
        ExperimentSpec(
            name="fig3",
            description="Routing table and buckets for node 91 (k=4)",
            runner=fig3.run_fig3,
            paper_artifact="Figure 3",
        ),
        ExperimentSpec(
            name="fig4",
            description="Per-node forwarded-chunk distributions",
            runner=paper.run_fig4,
            paper_artifact="Figure 4",
            supports_backend=True,
        ),
        ExperimentSpec(
            name="fig5",
            description="F2 (income) Lorenz curves and Gini",
            runner=paper.run_fig5,
            paper_artifact="Figure 5",
            supports_backend=True,
        ),
        ExperimentSpec(
            name="fig6",
            description="F1 (forwarded vs first-hop) Lorenz curves and Gini",
            runner=paper.run_fig6,
            paper_artifact="Figure 6",
            supports_backend=True,
        ),
        ExperimentSpec(
            name="headline",
            description="Gini reduction k=4 -> k=20 (paper: F2 -7%, F1 -6%)",
            runner=paper.run_headline,
            paper_artifact="Section VI",
            supports_backend=True,
        ),
        ExperimentSpec(
            name="k_sweep",
            description="Fairness/bandwidth across bucket sizes",
            runner=ablations.run_k_sweep,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="bucket0",
            description="Widen only bucket zero (paper §V idea)",
            runner=ablations.run_bucket0,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="pricing",
            description="Pricing-strategy ablation",
            runner=ablations.run_pricing,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="popularity",
            description="Zipf content popularity extension",
            runner=ablations.run_popularity,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="caching",
            description="Forwarding caches: per-node LRU/LFU and path cache",
            runner=ablations.run_caching,
        ),
        ExperimentSpec(
            name="freeriders",
            description="Misbehaving peers that never pay (§V)",
            runner=ablations.run_freeriders,
        ),
        ExperimentSpec(
            name="baselines",
            description="SWAP vs tit-for-tat / Filecoin-style / ideals",
            runner=ablations.run_baselines,
        ),
        ExperimentSpec(
            name="overhead",
            description="Net earnings after maintenance overhead (§V)",
            runner=extensions.run_overhead,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="churn",
            description="Availability under churn, with re-homing (§II)",
            runner=extensions.run_churn,
        ),
        ExperimentSpec(
            name="churn_under_caching",
            description="Path caching under churn (composed scenarios)",
            runner=scenarios.run_churn_under_caching,
        ),
        ExperimentSpec(
            name="join_storm",
            description="Cold-start join waves with re-homing (composed)",
            runner=scenarios.run_join_storm,
        ),
        ExperimentSpec(
            name="freerider_churn",
            description="Free-riders under churn (composed scenarios)",
            runner=scenarios.run_freerider_churn,
        ),
        ExperimentSpec(
            name="privacy",
            description="Identity exposure: iterative vs forwarding Kademlia",
            runner=extensions.run_privacy,
        ),
        ExperimentSpec(
            name="sensitivity",
            description="Paper grid over seeds: CIs and paired k=4 -> k=20",
            runner=sweeps.run_sensitivity,
            supports_backend=True,
        ),
        ExperimentSpec(
            name="storage",
            description="Storage incentives: postage + redistribution (§V)",
            runner=storage.run_storage,
        ),
        ExperimentSpec(
            name="latency",
            description="Retrieval latency vs bucket size (hop model)",
            runner=extensions.run_latency,
            supports_backend=True,
        ),
    )
}


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment; raises with the available names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {sorted(REGISTRY)}"
        ) from None


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments, paper artifacts first."""
    return sorted(
        REGISTRY.values(),
        key=lambda spec: (spec.paper_artifact is None, spec.name),
    )
