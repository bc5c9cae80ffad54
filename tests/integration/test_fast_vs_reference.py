"""Integration: every vectorized backend agrees with the reference.

This is the central cross-validation of the vectorized engines,
expressed through the backend protocol: on a shared overlay and
workload, the batched fast engine, the time-domain event wheel (run
with unbounded bandwidth) and the object-oriented SwarmNetwork adapter
must produce identical forwarded counts, first-hop counts, and (up to
float summation order) incomes. The ``time`` backend is otherwise
checked only against ``fast``; here it meets the reference directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import FastSimulationConfig, get_backend


CONFIGS = [
    FastSimulationConfig(
        n_nodes=120, bits=12, bucket_size=4, originator_share=0.2,
        n_files=40, file_min=10, file_max=30, overlay_seed=1,
        workload_seed=2,
    ),
    FastSimulationConfig(
        n_nodes=120, bits=12, bucket_size=20, originator_share=1.0,
        n_files=40, file_min=10, file_max=30, overlay_seed=1,
        workload_seed=2,
    ),
    FastSimulationConfig(
        n_nodes=90, bits=11, bucket_size=4, bucket_zero=16,
        originator_share=0.5, n_files=30, file_min=5, file_max=15,
        overlay_seed=8, workload_seed=3, pricing="proximity",
    ),
    # Zipf catalogs repeat files, so the same chunk addresses are
    # routed many times: the ``caching`` experiment's workload (fixed
    # 30-chunk files) and a variable-size one.
    FastSimulationConfig(
        n_nodes=120, bits=12, bucket_size=4, originator_share=0.2,
        n_files=60, file_min=30, file_max=30, catalog_size=12,
        overlay_seed=1, workload_seed=2,
    ),
    FastSimulationConfig(
        n_nodes=120, bits=12, bucket_size=20, originator_share=1.0,
        n_files=60, file_min=5, file_max=25, catalog_size=10,
        overlay_seed=3, workload_seed=4,
    ),
]

CONFIG_IDS = ["k4-skew", "k20-uniform", "bucket0-proximity",
              "catalog-fixed-size", "catalog-k20"]

FAST_BACKENDS = ["fast", "time"]


@pytest.fixture(scope="module")
def reference_results():
    cache: dict[int, object] = {}

    def result_for(config):
        key = id(config)
        if key not in cache:
            cache[key] = get_backend("reference").prepare(config).run()
        return cache[key]

    return result_for


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
class TestBackendsAgree:
    def test_forwarded_counts_identical(self, config, backend,
                                        reference_results):
        fast = get_backend(backend).prepare(config).run()
        reference = reference_results(config)
        assert np.array_equal(fast.forwarded, reference.forwarded)

    def test_first_hop_counts_identical(self, config, backend,
                                        reference_results):
        fast = get_backend(backend).prepare(config).run()
        reference = reference_results(config)
        assert np.array_equal(fast.first_hop, reference.first_hop)

    def test_incomes_match(self, config, backend, reference_results):
        fast = get_backend(backend).prepare(config).run()
        reference = reference_results(config)
        assert np.allclose(fast.income, reference.income)

    def test_traffic_counters_identical(self, config, backend,
                                        reference_results):
        fast = get_backend(backend).prepare(config).run()
        reference = reference_results(config)
        assert fast.chunks == reference.chunks
        assert fast.total_hops == reference.total_hops
        assert fast.local_hits == reference.local_hits
        assert fast.hop_histogram == reference.hop_histogram

    def test_fairness_metrics_match(self, config, backend,
                                    reference_results):
        fast = get_backend(backend).prepare(config).run()
        reference = reference_results(config)
        assert fast.f2_gini() == pytest.approx(
            reference.f2_gini(), abs=1e-9
        )
        assert fast.f1_gini() == pytest.approx(
            reference.f1_gini(), abs=1e-9
        )
