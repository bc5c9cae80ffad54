"""Patched-static dynamics routing == the decoded oracle, bit for bit.

The claim of the sparse epoch-patching work: churn epochs run through
the *static* banded kernel — over an in-place patched coded matrix
plus a dead-value LUT — and produce exactly the numbers the decoded
dynamic mode (kept as the oracle in ``decoded_oracle.py``) does. Not
statistically equivalent: every counter, every per-node vector, every
histogram bucket identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_simulation
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import (
    NextHopTable,
    cached_overlay,
    clear_caches,
)
from repro.perf.table_cache import EPOCH_TABLE_LOG_ENV, global_table_cache

from .decoded_oracle import run_decoded
from .test_golden import GOLDEN_CONFIG
from .test_golden_scenarios import SCENARIO_GOLDEN_CONFIGS

BASE = dict(
    n_nodes=120, bits=12, bucket_size=4, n_files=48,
    file_min=4, file_max=8, batch_files=8, catalog_size=30,
    originator_share=0.5,
)

#: Every dynamics shape the engine distinguishes: plain churn (empty
#: coded patch), storer-recomputing churn (non-trivial patches), a
#: join storm arriving in waves, and a composed stack that also
#: exercises caching, free-riding, and demand focus on top of
#: recomputed storers.
SCENARIOS = (
    "churn:rate=0.2",
    "churn:rate=0.2,recompute=true",
    "join:fraction=0.5,waves=3",
    "churn:rate=0.15,recompute=true+caching:size=64"
    "+freeriding:fraction=0.25+demand:share=0.2",
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


def assert_matches_oracle(config: FastSimulationConfig) -> None:
    clear_caches()
    patched = run_simulation(config)
    clear_caches()
    decoded = run_decoded(config)
    for name in ("files", "chunks", "total_hops", "fallbacks",
                 "local_hits", "cache_hits", "unavailable"):
        assert getattr(patched, name) == getattr(decoded, name), name
    assert patched.hop_histogram == decoded.hop_histogram
    for name in ("forwarded", "first_hop", "income", "expenditure"):
        assert np.array_equal(
            getattr(patched, name), getattr(decoded, name)
        ), name


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_patched_matches_decoded_exactly(scenario):
    assert_matches_oracle(FastSimulationConfig(**BASE, scenario=scenario))


@pytest.mark.parametrize(
    "name", ["static", *sorted(SCENARIO_GOLDEN_CONFIGS)]
)
def test_golden_configs_match_decoded_exactly(name):
    """Static epochs and cache hits agree with the decoded mode too."""
    assert_matches_oracle(
        GOLDEN_CONFIG if name == "static"
        else SCENARIO_GOLDEN_CONFIGS[name]
    )


def test_coded_matrix_is_pristine_after_patched_run():
    """The working copy reverts bit-exactly when a run finishes."""
    config = FastSimulationConfig(
        **BASE, scenario="churn:rate=0.2,recompute=true"
    )
    table = NextHopTable(cached_overlay(config.overlay_config()))
    pristine = table.coded_transposed.copy()
    run_simulation(config)
    working = global_table_cache().writable_coded(table)
    assert np.array_equal(working, pristine)
    assert np.array_equal(table.coded_transposed, pristine)


def test_epoch_log_records_coded_patch_lifecycle(monkeypatch, tmp_path):
    """REPRO_EPOCH_TABLE_LOG covers the coded-matrix cache entries.

    One storer-recomputing run logs a ``patch`` (or ``hit``) and a
    matching ``revert`` for every epoch under the ``"coded:"``-prefixed
    chained fingerprint; a second run in the same process serves every
    patch from cache.
    """
    log = tmp_path / "epoch-tables.log"
    monkeypatch.setenv(EPOCH_TABLE_LOG_ENV, str(log))
    config = FastSimulationConfig(
        **BASE, scenario="churn:rate=0.2,recompute=true"
    )
    n_epochs = config.n_epochs()
    run_simulation(config)
    lines = [line.split() for line in log.read_text().splitlines()]
    coded = [(fp, event) for fp, _, event in lines
             if fp.startswith("coded:")]
    assert [e for _, e in coded].count("patch") == n_epochs
    assert [e for _, e in coded].count("revert") == n_epochs
    run_simulation(config)
    lines = [line.split() for line in log.read_text().splitlines()]
    coded = [(fp, event) for fp, _, event in lines
             if fp.startswith("coded:")]
    assert [e for _, e in coded].count("patch") == n_epochs
    assert [e for _, e in coded].count("hit") == n_epochs
    assert [e for _, e in coded].count("revert") == 2 * n_epochs


def test_clear_caches_drops_working_copies():
    """clear_caches covers the coded working copies.

    Built tables are patched in place (no copy), so the working-copy
    path only engages for read-only tables — the shape shared-memory
    attachments have. Freeze one to stand in for an attachment.
    """
    config = FastSimulationConfig(
        **BASE, scenario="churn:rate=0.2,recompute=true"
    )
    overlay = cached_overlay(config.overlay_config())
    built = NextHopTable(overlay)
    coded = built.coded_transposed.copy()
    coded.flags.writeable = False
    storer = built.storer.copy()
    storer.flags.writeable = False
    frozen = NextHopTable.from_arrays(overlay, coded=coded, storer=storer)
    cache = global_table_cache()
    cache.install(overlay.fingerprint(), frozen)
    run_simulation(config)
    assert cache._working, "a read-only table forces a working copy"
    clear_caches()
    assert not cache._working
