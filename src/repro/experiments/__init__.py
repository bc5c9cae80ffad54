"""Experiment runners: one per paper table/figure, plus ablations.

The vectorized simulation engine lives in :mod:`repro.backends`;
:mod:`repro.experiments.paper` reproduces Table I and Figures 4-6;
:mod:`repro.experiments.ablations` covers the §V future-work
extensions; :mod:`repro.experiments.scenarios` runs the composed
network dynamics; :mod:`repro.experiments.registry` indexes
everything for the CLI.
"""

from .ablations import (
    run_baselines,
    run_bucket0,
    run_caching,
    run_freeriders,
    run_k_sweep,
    run_popularity,
    run_pricing,
)
from .extensions import (
    run_churn,
    run_latency,
    run_overhead,
    run_privacy,
    run_sensitivity,
)
from ..backends.fast import (
    FastSimulation,
    FastSimulationConfig,
    NextHopTable,
    SimulationResult,
    cached_next_hop_table,
    cached_overlay,
    clear_caches,
    paper_result,
)
from .paper import (
    GRID_BUCKET_SIZES,
    GRID_ORIGINATOR_SHARES,
    run_fig4,
    run_fig5,
    run_fig6,
    run_grid,
    run_headline,
    run_table1,
)
from .registry import (
    REGISTRY,
    ExperimentSpec,
    get_experiment,
    list_experiments,
)
from .report import ExperimentReport
from .storage import run_storage

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "FastSimulation",
    "FastSimulationConfig",
    "GRID_BUCKET_SIZES",
    "GRID_ORIGINATOR_SHARES",
    "NextHopTable",
    "REGISTRY",
    "SimulationResult",
    "cached_next_hop_table",
    "cached_overlay",
    "clear_caches",
    "get_experiment",
    "list_experiments",
    "paper_result",
    "run_baselines",
    "run_bucket0",
    "run_caching",
    "run_churn",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_freeriders",
    "run_grid",
    "run_headline",
    "run_k_sweep",
    "run_latency",
    "run_overhead",
    "run_popularity",
    "run_pricing",
    "run_privacy",
    "run_sensitivity",
    "run_storage",
    "run_table1",
]
