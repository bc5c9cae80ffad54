"""Golden fixtures for the scenario (churn/caching) simulation paths.

``tests/backends/test_golden.py`` pins the static routing semantics;
this module pins the *dynamic* ones: per-epoch churn alive-masks (with
and without storer recomputation), the path-caching mask, and the two
combined. The fixtures were generated from the pre-unification forked
kernels (``_route_waves_churn`` / ``_serve_from_cache``), so the
single epoch-segmented kernel that replaced them is provably
bit-identical — any counter, histogram bucket, or per-node vector that
moves fails these exact comparisons. A deliberate semantic change
refreshes them with ``pytest --update-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import run_simulation
from repro.backends.config import FastSimulationConfig
from repro.backends.result import SimulationResult

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Shared shape: small enough to regenerate in seconds, multi-epoch
#: (30 files / 8-file batches = 4 epochs) so alive masks and the cache
#: mask actually evolve, and enough files that churn drops some chunks
#: without emptying any epoch.
_BASE = dict(
    n_nodes=120,
    bits=12,
    bucket_size=4,
    originator_share=0.5,
    n_files=30,
    file_min=4,
    file_max=12,
    overlay_seed=42,
    workload_seed=7,
    batch_files=8,
)

SCENARIO_GOLDEN_CONFIGS: dict[str, FastSimulationConfig] = {
    "scenario_churn": FastSimulationConfig(
        **_BASE, scenario="churn:rate=0.2,seed=99",
    ),
    "scenario_churn_recompute": FastSimulationConfig(
        **_BASE, scenario="churn:rate=0.3,seed=99,recompute=true",
    ),
    "scenario_caching": FastSimulationConfig(
        **_BASE, scenario="caching", catalog_size=20,
    ),
    "scenario_churn_caching": FastSimulationConfig(
        **_BASE, scenario="churn:rate=0.2,seed=99+caching", catalog_size=20,
    ),
}


def scenario_payload(result: SimulationResult) -> dict:
    """The JSON-able frozen form of one scenario simulation result."""
    return {
        "config": {
            "scenario": result.config.scenario,
            "catalog_size": result.config.catalog_size,
            "batch_files": result.config.batch_files,
            "n_files": result.config.n_files,
            "n_nodes": result.config.n_nodes,
            "workload_seed": result.config.workload_seed,
        },
        "counters": {
            "files": result.files,
            "chunks": result.chunks,
            "total_hops": result.total_hops,
            "local_hits": result.local_hits,
            "fallbacks": result.fallbacks,
            "cache_hits": result.cache_hits,
            "unavailable": result.unavailable,
        },
        "hop_histogram": {
            str(h): c for h, c in sorted(result.hop_histogram.items())
        },
        "forwarded": [int(v) for v in result.forwarded],
        "first_hop": [int(v) for v in result.first_hop],
        "income": [float(v) for v in result.income],
        "expenditure": [float(v) for v in result.expenditure],
    }


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN_CONFIGS))
def test_scenario_matches_golden(name: str, update_golden: bool):
    result = run_simulation(SCENARIO_GOLDEN_CONFIGS[name])
    payload = scenario_payload(result)
    path = GOLDEN_DIR / f"{name}.json"

    if update_golden:
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return

    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"pytest --update-golden"
    )
    golden = json.loads(path.read_text())

    assert payload["config"] == golden["config"]
    # Integer traffic and availability counters must match exactly:
    # the kernel unification claims bit-identity, not similarity.
    assert payload["counters"] == golden["counters"]
    assert payload["hop_histogram"] == golden["hop_histogram"]
    assert payload["forwarded"] == golden["forwarded"]
    assert payload["first_hop"] == golden["first_hop"]
    np.testing.assert_allclose(
        payload["income"], golden["income"], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        payload["expenditure"], golden["expenditure"], rtol=1e-9,
        atol=1e-12,
    )


def test_scenario_goldens_are_dynamic():
    """The frozen runs actually exercised the dynamics they pin."""
    churn = json.loads((GOLDEN_DIR / "scenario_churn.json").read_text())
    assert churn["counters"]["unavailable"] > 0
    recompute = json.loads(
        (GOLDEN_DIR / "scenario_churn_recompute.json").read_text()
    )
    assert (recompute["counters"]["unavailable"]
            < recompute["counters"]["chunks"])
    caching = json.loads((GOLDEN_DIR / "scenario_caching.json").read_text())
    assert caching["counters"]["cache_hits"] > 0
    combined = json.loads(
        (GOLDEN_DIR / "scenario_churn_caching.json").read_text()
    )
    assert combined["counters"]["cache_hits"] > 0
    assert combined["counters"]["unavailable"] > 0
