"""Seed-sensitivity analysis: are the paper's deltas robust?

The paper runs each configuration once with a fixed seed. This module
compares two configurations across paired workload seeds and reports
the mean and confidence interval of the relative change in a metric,
so claims like "k=20 lowers the F2 Gini by 7 %" can be checked for
seed robustness rather than read off a single run. (Seed replicas of
one configuration are a sweep: ``SweepSpec(seeds=N)``.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from .stats import mean_confidence_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.fast import FastSimulationConfig, SimulationResult

__all__ = ["compare_configs"]

#: A metric maps a simulation result to one number.
Metric = Callable[["SimulationResult"], float]


def _fast_simulation():
    """Late import: repro.experiments imports repro.analysis, so the
    reverse dependency must resolve at call time, not import time."""
    from ..backends.fast import FastSimulation

    return FastSimulation


def compare_configs(baseline: "FastSimulationConfig",
                    treatment: "FastSimulationConfig",
                    metric: Metric, *, metric_name: str = "metric",
                    n_replications: int = 5,
                    base_seed: int = 1000) -> dict[str, object]:
    """Paired comparison of one metric under two configurations.

    Both configurations see the *same* workload seeds (paired design),
    so the per-seed deltas isolate the configuration effect. Returns
    the per-seed relative reductions and their mean CI — the §VI
    headline quantity with uncertainty attached.
    """
    simulation_cls = _fast_simulation()
    deltas: list[float] = []
    for replication in range(n_replications):
        seed = base_seed + replication
        base_result = simulation_cls(
            replace(baseline, workload_seed=seed)
        ).run()
        treat_result = simulation_cls(
            replace(treatment, workload_seed=seed)
        ).run()
        base_value = metric(base_result)
        if base_value == 0:
            raise ConfigurationError(
                "baseline metric is zero; relative reduction undefined"
            )
        deltas.append((base_value - metric(treat_result)) / base_value)
    mean, low, high = mean_confidence_interval(deltas)
    return {
        "metric": metric_name,
        "reductions": tuple(deltas),
        "mean_reduction": mean,
        "ci": (low, high),
        "robust": bool(low > 0.0 or high < 0.0),
    }
