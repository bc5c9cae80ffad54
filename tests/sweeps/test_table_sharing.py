"""Cross-process table sharing and worker-count hygiene.

The headline guarantee: a multi-seed, multi-worker sweep over one
topology builds its next-hop table **exactly once**, machine-wide.
The check is hardware-independent — it counts build events through
``REPRO_TABLE_BUILD_LOG``, not seconds.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import TABLE_BUILD_LOG_ENV, clear_caches
from repro.errors import ConfigurationError
from repro.sweeps import (
    ProcessExecutor,
    SerialExecutor,
    SweepSpec,
    resolve_jobs,
    run_sweep,
    table_topologies,
)

#: Small but multi-hop: 120 nodes, 20 files, 2 workload cells x 3 seeds.
BASE = FastSimulationConfig(
    n_nodes=120, bits=12, bucket_size=4, n_files=20,
    file_min=4, file_max=8,
)
SPEC = SweepSpec(
    base=BASE,
    grid={"originator_share": (0.5, 1.0)},
    backends=("fast",),
    seeds=3,
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


def quiet_run(spec, **executor_kwargs):
    """Run suppressing the (expected on CI) oversubscription warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        executor = ProcessExecutor(**executor_kwargs)
        return executor.run(spec.base, spec.points())


class TestBuildOnce:
    def test_multiworker_sweep_builds_table_exactly_once(
            self, tmp_path, monkeypatch):
        """3 seeds x 2 grid points x 2 workers -> one build, total."""
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sweep(SPEC, jobs=2)
        assert result.executed == len(SPEC)
        assert log.exists(), "the cold build should have been logged"
        lines = log.read_text().splitlines()
        assert len(lines) == 1, (
            f"expected exactly one table build across the sweep, got "
            f"{len(lines)}: {lines}"
        )
        # ... and it happened in the parent (publisher), not a worker.
        assert lines[0].split()[1] == str(os.getpid())

    def test_serial_sweep_also_builds_once(self, tmp_path, monkeypatch):
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        clear_caches()
        run_sweep(SPEC, jobs=1)
        assert len(log.read_text().splitlines()) == 1

    def test_without_table_cache_workers_rebuild(self, tmp_path,
                                                 monkeypatch):
        """--no-table-cache restores the rebuild-per-worker behavior."""
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(SPEC, jobs=2, table_cache=False)
        pids = {line.split()[1] for line in log.read_text().splitlines()}
        assert str(os.getpid()) not in pids, (
            "without sharing, the parent should not build at all"
        )
        assert len(pids) >= 1, "workers should have built their own tables"


class TestSharedResultsIdentical:
    def test_shared_and_unshared_match_serial_exactly(self):
        serial = SerialExecutor().run(SPEC.base, SPEC.points())
        shared = quiet_run(SPEC, jobs=2, share_tables=True)
        unshared = quiet_run(SPEC, jobs=2, share_tables=False)
        for label, parallel in (("shared", shared), ("unshared", unshared)):
            assert [o.point_id for o in parallel] == [
                o.point_id for o in serial
            ]
            for ours, theirs in zip(parallel, serial):
                assert ours.metrics == theirs.metrics, label
                for name, vector in theirs.vectors.items():
                    assert np.array_equal(ours.vectors[name], vector), (
                        f"{label}: {ours.point_id} {name}"
                    )


class TestTableTopologies:
    def test_counts_unique_topologies_only(self):
        spec = SweepSpec(
            base=BASE,
            grid={"bucket_size": (4, 8), "originator_share": (0.5, 1.0)},
            backends=("fast", "fast-perfile"),
            seeds=2,
        )
        configs = table_topologies(spec.base, spec.points())
        # Only bucket_size changes the topology: 2 unique overlays for
        # 16 points.
        assert len(configs) == 2
        assert {c.limits.default for c in configs} == {4, 8}

    def test_skips_backends_without_tables(self):
        spec = SweepSpec(base=BASE, backends=("reference", "tit_for_tat"),
                         seeds=2)
        assert table_topologies(spec.base, spec.points()) == []

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            # Points are plain data, so a bogus name surfaces here.
            from repro.sweeps.spec import SweepPoint

            table_topologies(BASE, [SweepPoint(
                index=0, backend="bogus", overrides=(), replica=0,
                workload_seed=1,
            )])


class TestJobsHygiene:
    def test_oversubscription_warns_but_keeps_request(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="exceeds the 2 available"):
            assert resolve_jobs(8) == 8

    def test_cap_jobs_clamps_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="capping to 2"):
            assert resolve_jobs(8, cap_jobs=True) == 2

    def test_within_budget_is_silent(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(4) == 4
            assert resolve_jobs(8, cap_jobs=True) == 8

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)

    def test_executor_applies_cap(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning):
            executor = ProcessExecutor(jobs=8, cap_jobs=True)
        assert executor.jobs == 2


class TestCliFlags:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--grid",
                                          "bucket_size=4"])
        assert args.table_cache is True
        assert args.cap_jobs is False

    def test_parser_accepts_no_table_cache_and_cap_jobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "sweep", "--grid", "bucket_size=4", "--no-table-cache",
            "--cap-jobs",
        ])
        assert args.table_cache is False
        assert args.cap_jobs is True
