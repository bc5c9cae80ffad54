"""Golden-result regression harness.

Freezes small-scale canonical simulation results — per-node forwarded
and first-hop counters, income/expenditure vectors, and the paper's
fairness metrics — for the ``fast`` and ``reference`` backends at
fixed seeds under ``tests/golden/``. Any refactor that changes
simulation *semantics* (routing decisions, pricing, accounting)
breaks these exact comparisons; a deliberate semantic change
refreshes them with::

    pytest tests/backends/test_golden.py --update-golden

and the fixture diff documents exactly what moved.
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

#: The canonical frozen configuration: small enough for the reference
#: simulator, non-trivial enough to exercise multi-hop routing,
#: fallbacks, and the full SWAP accounting.
GOLDEN_CONFIG = FastSimulationConfig(
    n_nodes=120,
    bits=12,
    bucket_size=4,
    originator_share=1.0,
    n_files=30,
    file_min=4,
    file_max=12,
    overlay_seed=42,
    workload_seed=7,
)

GOLDEN_BACKENDS = ("fast", "reference")


def golden_payload(result: SimulationResult) -> dict:
    """The JSON-able frozen form of one simulation result."""
    return {
        "config": {
            "n_nodes": result.config.n_nodes,
            "bits": result.config.bits,
            "bucket_size": result.config.bucket_size,
            "originator_share": result.config.originator_share,
            "n_files": result.config.n_files,
            "file_min": result.config.file_min,
            "file_max": result.config.file_max,
            "overlay_seed": result.config.overlay_seed,
            "workload_seed": result.config.workload_seed,
        },
        "counters": {
            "files": result.files,
            "chunks": result.chunks,
            "total_hops": result.total_hops,
            "local_hits": result.local_hits,
            "fallbacks": result.fallbacks,
        },
        "hop_histogram": {
            str(h): c for h, c in sorted(result.hop_histogram.items())
        },
        "metrics": {
            "mean_hops": result.mean_hops,
            "mean_forwarded": result.average_forwarded_chunks(),
            "f2_gini": result.f2_gini(),
            "f1_gini": result.f1_gini(),
        },
        "node_addresses": [int(a) for a in result.node_addresses],
        "forwarded": [int(v) for v in result.forwarded],
        "first_hop": [int(v) for v in result.first_hop],
        "income": [float(v) for v in result.income],
        "expenditure": [float(v) for v in result.expenditure],
    }


@pytest.mark.parametrize("backend", GOLDEN_BACKENDS)
def test_backend_matches_golden(backend: str, update_golden: bool):
    result = run_simulation(GOLDEN_CONFIG, backend=backend)
    payload = golden_payload(result)
    path = GOLDEN_DIR / f"{backend}.json"

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
    assert payload["counters"] == golden["counters"]
    assert payload["hop_histogram"] == golden["hop_histogram"]
    assert payload["node_addresses"] == golden["node_addresses"]
    # Integer traffic counters must match exactly; semantic drift in
    # routing shows up here first.
    assert payload["forwarded"] == golden["forwarded"]
    assert payload["first_hop"] == golden["first_hop"]
    # Accounting vectors and derived metrics: tight float tolerance
    # (guards against summation-order churn while still catching any
    # real pricing/accounting change).
    np.testing.assert_allclose(
        payload["income"], golden["income"], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        payload["expenditure"], golden["expenditure"], rtol=1e-9,
        atol=1e-12,
    )
    for name, value in payload["metrics"].items():
        assert value == pytest.approx(golden["metrics"][name], rel=1e-9)


def test_goldens_agree_across_backends():
    """The two engines pin the *same* semantics, not two semantics."""
    fixtures = []
    for backend in GOLDEN_BACKENDS:
        path = GOLDEN_DIR / f"{backend}.json"
        fixtures.append(json.loads(path.read_text()))
    first = fixtures[0]
    for other in fixtures[1:]:
        assert other["forwarded"] == first["forwarded"]
        assert other["counters"]["chunks"] == first["counters"]["chunks"]
        np.testing.assert_allclose(
            other["income"], first["income"], rtol=1e-9, atol=1e-12
        )
