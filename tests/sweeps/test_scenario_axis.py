"""The scenario axis as a first-class sweep dimension.

Covers the acceptance criteria of the scenario-layer refactor: spec
expansion and JSON/store round-trips of the ``scenarios`` axis, a
composed-scenario sweep running end-to-end with ``--jobs 2`` byte-
identical to serial, and — via ``REPRO_EPOCH_TABLE_LOG`` — the proof
that per-epoch storer tables under topology change hit the delta
cache instead of being recomputed per replica (strictly fewer
patches/rebuilds than epoch-table resolutions).
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import clear_caches
from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf.table_cache import EPOCH_TABLE_LOG_ENV
from repro.sweeps import SweepSpec, run_sweep

COMPOSED = "churn:rate=0.2,recompute=true+caching:size=64"

BASE = FastSimulationConfig(
    n_nodes=120, bits=12, bucket_size=4, n_files=40,
    file_min=4, file_max=8, batch_files=8, catalog_size=30,
    originator_share=0.5,
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


class TestSpecAxis:
    def test_scenarios_cross_the_grid(self):
        spec = SweepSpec(
            base=BASE,
            grid={"bucket_size": (4, 8)},
            scenarios=("churn:rate=0.1", COMPOSED),
            seeds=2,
        )
        assert len(spec) == 2 * 2 * 2
        cells = spec.cells()
        assert len(cells) == 4
        assert all(cell[-1][0] == "scenario" for cell in cells)
        # Scenario expands innermost: grid value changes slowest.
        assert [dict(cell)["scenario"] for cell in cells[:2]] == [
            "churn:rate=0.1", COMPOSED,
        ]
        point = spec.points()[0]
        assert "scenario=" in point.point_id

    def test_bad_scenario_fails_at_spec_build(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            SweepSpec(base=BASE, scenarios=("warp:factor=9",))

    def test_scenario_axis_and_grid_field_collide(self):
        with pytest.raises(ConfigurationError, match="twice"):
            SweepSpec(
                base=BASE,
                grid={"scenario": ("churn:rate=0.1",)},
                scenarios=(COMPOSED,),
            )

    def test_json_round_trip(self):
        spec = SweepSpec(base=BASE, scenarios=(COMPOSED,), seeds=2)
        assert SweepSpec.from_json(spec.to_json()) == spec
        # Scenario-free specs serialize without the key, keeping old
        # stores byte-comparable.
        assert "scenarios" not in SweepSpec(base=BASE).to_json()


class TestComposedSweep:
    def _spec(self) -> SweepSpec:
        return SweepSpec(
            base=BASE, scenarios=(COMPOSED,), seeds=2,
            backends=("fast",),
        )

    def test_parallel_is_byte_identical_to_serial(self, tmp_path):
        serial_store = tmp_path / "serial.json"
        parallel_store = tmp_path / "parallel.json"
        serial = run_sweep(self._spec(), jobs=1, store_path=serial_store)
        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = run_sweep(
                self._spec(), jobs=2, store_path=parallel_store
            )
        assert serial.executed == parallel.executed == 2
        assert serial_store.read_bytes() == parallel_store.read_bytes()
        for left, right in zip(serial.records, parallel.records):
            assert left == right
        summary = parallel.summaries[0]
        assert dict(summary.overrides)["scenario"] == COMPOSED
        assert summary.metrics["cache_hits"].mean > 0
        assert summary.metrics["availability"].mean < 1.0

    def test_store_resumes_scenario_points(self, tmp_path):
        store = tmp_path / "sweep.json"
        first = run_sweep(self._spec(), jobs=1, store_path=store)
        assert first.executed == 2
        snapshot = store.read_bytes()
        resumed = run_sweep(self._spec(), jobs=1, store_path=store)
        assert resumed.executed == 0
        assert resumed.resumed == 2
        assert store.read_bytes() == snapshot

    def test_epoch_tables_hit_the_delta_cache(self, tmp_path,
                                              monkeypatch):
        """Across seed replicas, epoch tables resolve mostly as hits.

        5 epochs x 3 replicas request 15 epoch tables; only the first
        replica's 5 may be computed (as delta patches), the other 10
        must be cache hits — the instrumented log proves it per
        worker process, without timing anything.
        """
        log = tmp_path / "epoch-tables.log"
        monkeypatch.setenv(EPOCH_TABLE_LOG_ENV, str(log))
        spec = SweepSpec(
            base=BASE, scenarios=(COMPOSED,), seeds=3,
            backends=("fast",),
        )
        result = run_sweep(spec, jobs=1)
        assert result.executed == 3
        lines = [line.split() for line in log.read_text().splitlines()]
        storer = Counter(
            event for fingerprint, _, event in lines
            if not fingerprint.startswith("coded:")
        )
        resolutions = storer["patch"] + storer["rebuild"] + storer["hit"]
        computed = storer["patch"] + storer["rebuild"]
        assert resolutions == 15
        assert computed == 5
        assert storer["hit"] == 10
        assert computed < resolutions, (
            "the delta cache must beat recompute-per-replica"
        )
        # The coded-matrix patches amortize identically: the matrix is
        # scanned once per epoch on the first replica, the later
        # replicas re-apply the cached sparse patch, and every applied
        # patch is reverted on epoch exit (pristine-matrix guarantee).
        coded = Counter(
            event for fingerprint, _, event in lines
            if fingerprint.startswith("coded:")
        )
        assert coded["patch"] + coded["rebuild"] == 5
        assert coded["hit"] == 10
        assert coded["revert"] == 15

    def test_workers_amortize_locally(self, tmp_path, monkeypatch):
        """Each pool worker derives a schedule's epochs once, itself.

        The sweep parent does no epoch work. Every worker computes
        each of the 5 epochs' storer table and coded patch at most
        once, on the first replica it runs, and resolves them as
        cache hits on every later replica; nothing is installed from
        another process. The store is byte-identical to a serial run.
        """
        log = tmp_path / "epoch-tables.log"
        spec = SweepSpec(
            base=BASE, scenarios=(COMPOSED,), seeds=4,
            backends=("fast",),
        )
        serial_store = tmp_path / "serial.json"
        parallel_store = tmp_path / "parallel.json"
        run_sweep(spec, jobs=1, store_path=serial_store)
        clear_caches()
        monkeypatch.setenv(EPOCH_TABLE_LOG_ENV, str(log))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(spec, jobs=2, store_path=parallel_store)
        assert result.executed == 4
        assert serial_store.read_bytes() == parallel_store.read_bytes()
        per_pid: dict[str, Counter] = {}
        for line in log.read_text().splitlines():
            fingerprint, pid, event = line.split()
            kind = ("coded" if fingerprint.startswith("coded:")
                    else "storer")
            per_pid.setdefault(pid, Counter())[f"{kind}:{event}"] += 1
        assert str(os.getpid()) not in per_pid
        assert per_pid, "expected at least one pool worker"
        resolved = 0
        for pid, events in per_pid.items():
            assert not any(key.endswith(":shared") for key in events), (
                pid, events)
            for kind in ("storer", "coded"):
                computed = events[f"{kind}:patch"] + events[
                    f"{kind}:rebuild"]
                resolutions = computed + events[f"{kind}:hit"]
                assert computed <= 5, (pid, events)
                # Whole replicas only; each after the first is all hits.
                assert resolutions % 5 == 0, (pid, events)
                assert events[f"{kind}:hit"] == resolutions - 5, (
                    pid, events)
            resolved += resolutions
        assert resolved == 4 * 5


class TestTraceReplayAxis:
    """``--scenario trace:path=...`` crossing the sweep grid."""

    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.scenarios.trace import record_dynamics

        source = dataclasses.replace(BASE, scenario=COMPOSED)
        path = tmp_path / "dynamics.json"
        record_dynamics(
            source.scenario_stack(), source.scenario_context()
        ).save(path)
        return path

    def test_trace_axis_parallel_is_byte_identical(self, tmp_path,
                                                   trace_path):
        spec = SweepSpec(
            base=BASE, scenarios=(f"trace:path={trace_path}",),
            grid={"bucket_size": (4, 8)}, seeds=2, backends=("fast",),
        )
        serial_store = tmp_path / "serial.json"
        parallel_store = tmp_path / "parallel.json"
        serial = run_sweep(spec, jobs=1, store_path=serial_store)
        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = run_sweep(spec, jobs=2, store_path=parallel_store)
        assert serial.executed == parallel.executed == 4
        assert serial_store.read_bytes() == parallel_store.read_bytes()

    def test_trace_axis_metrics_equal_direct_scenario(self, trace_path):
        """Replaying the recording sweeps to the same numbers as the
        source scenario string — per point, not just on average."""
        direct = run_sweep(SweepSpec(
            base=BASE, scenarios=(COMPOSED,), seeds=2,
            backends=("fast",),
        ), jobs=1)
        clear_caches()
        replayed = run_sweep(SweepSpec(
            base=BASE, scenarios=(f"trace:path={trace_path}",),
            seeds=2, backends=("fast",),
        ), jobs=1)
        assert len(direct.records) == len(replayed.records) == 2
        for left, right in zip(direct.records, replayed.records):
            assert left["replica"] == right["replica"]
            assert left["metrics"] == right["metrics"]

    def test_missing_trace_fails_at_spec_build(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            SweepSpec(
                base=BASE,
                scenarios=(f"trace:path={tmp_path / 'gone.json'}",),
            )


class TestScenarioCLI:
    def test_sweep_scenario_flag_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "cli.json"
        code = main([
            "sweep", "--scenario", COMPOSED, "--seeds", "2",
            "--files", "40", "--nodes", "120",
            "--store", str(store),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 scenario(s)" in out
        assert f"scenario={COMPOSED}" in out
        document = json.loads(store.read_text())
        assert document["spec"]["scenarios"] == [COMPOSED]
        points = document["points"]
        assert all(
            point["overrides"]["scenario"] == COMPOSED
            for point in points.values()
        )

    def test_bad_scenario_flag_fails_with_grammar(self, capsys):
        assert main([
            "sweep", "--scenario", "warp:factor=9",
            "--files", "40", "--nodes", "120",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-swarm sweep: error: ")
        assert "available" in err


class TestScenarioDeterminism:
    def test_scenario_runs_are_replayable(self):
        config = FastSimulationConfig(
            n_nodes=120, bits=12, n_files=40, batch_files=8,
            catalog_size=30, scenario=COMPOSED,
        )
        from repro.backends import run_simulation

        first = run_simulation(config)
        clear_caches()
        second = run_simulation(config)
        assert np.array_equal(first.forwarded, second.forwarded)
        assert np.array_equal(first.income, second.income)
        assert first.hop_histogram == second.hop_histogram
