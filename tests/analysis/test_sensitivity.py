"""Unit tests for seed-sensitivity analysis (repro.analysis.sensitivity)."""

from __future__ import annotations

import pytest

from repro.analysis.sensitivity import compare_configs
from repro.backends.fast import FastSimulationConfig

CONFIG = FastSimulationConfig(
    n_nodes=100, bits=12, bucket_size=4, originator_share=0.5,
    n_files=40, file_min=5, file_max=20, overlay_seed=6,
)


class TestCompareConfigs:
    def test_k20_reduction_positive_and_robust_direction(self):
        from dataclasses import replace

        treatment = replace(CONFIG, bucket_size=20)
        outcome = compare_configs(
            CONFIG, treatment, lambda r: r.f2_gini(),
            metric_name="F2", n_replications=3,
        )
        assert outcome["metric"] == "F2"
        assert len(outcome["reductions"]) == 3
        assert outcome["mean_reduction"] > 0.0

    def test_self_comparison_is_zero(self):
        outcome = compare_configs(
            CONFIG, CONFIG, lambda r: r.f2_gini(),
            n_replications=2,
        )
        assert outcome["mean_reduction"] == pytest.approx(0.0, abs=1e-12)
        assert not outcome["robust"]
