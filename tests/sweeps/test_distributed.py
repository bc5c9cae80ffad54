"""End-to-end distributed sweep execution.

The acceptance property of the distributed executor: a sweep sharded
across ``sweep-work`` host subprocesses — healthy, or with a host
SIGKILLed mid-run by the ``kill-host`` chaos fault — produces a
coordinator store **byte-identical** to a fault-free serial run, and
the per-host shard stores merge back to the same bytes. The
build-once guarantee extends per machine: every host builds each
unique topology exactly once, however many local jobs it runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import TABLE_BUILD_LOG_ENV, clear_caches
from repro.errors import ConfigurationError
from repro.sweeps import (
    DistributedExecutor,
    SweepSpec,
    SweepStore,
    run_sweep,
)

TINY = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(base=TINY, grid={"bucket_size": (4, 8)},
                    backends=("fast",), seeds=2)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def run_quiet(*args, **kwargs):
    """run_sweep with oversubscription/restart warnings swallowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(*args, **kwargs)


def write_plan(tmp_path, faults) -> Path:
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": faults}))
    return path


class TestDistributedByteIdentity:
    def test_two_workers_match_serial_store(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)

        dist = tmp_path / "dist.json"
        result = run_quiet(spec, workers=2, jobs=1, store_path=dist,
                           shard_dir=tmp_path / "shards")
        assert result.executed == len(spec)
        assert result.failures == []
        assert serial.read_bytes() == dist.read_bytes()

    def test_shards_merge_to_the_serial_bytes(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)

        shard_dir = tmp_path / "shards"
        run_quiet(spec, workers=2, jobs=1,
                  store_path=tmp_path / "dist.json", shard_dir=shard_dir)
        shards = sorted(shard_dir.glob("host-*.json"))
        assert len(shards) == 2
        merged = SweepStore.merge(
            [SweepStore.load(path) for path in shards],
            path=tmp_path / "merged.json",
        )
        merged.save()
        # Shard provenance differs from a store written by this
        # process only in which git/python snapshot recorded it —
        # identical here, so the whole file matches.
        assert (tmp_path / "merged.json").read_bytes() \
            == serial.read_bytes()

    def test_results_and_summaries_match_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec, jobs=1)
        dist = run_quiet(spec, workers=2, jobs=1,
                         shard_dir=tmp_path / "shards")
        assert dist.records == serial.records
        assert [s.metrics for s in dist.summaries] \
            == [s.metrics for s in serial.summaries]


class TestDistributedFaults:
    def test_killed_host_recovers_byte_identical(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)

        plan = write_plan(tmp_path, [
            {"point_id": spec.points()[1].point_id, "attempt": 0,
             "kind": "kill-host"},
        ])
        dist = tmp_path / "dist.json"
        result = run_quiet(spec, workers=2, jobs=1, store_path=dist,
                           shard_dir=tmp_path / "shards",
                           fault_plan=plan, lease_timeout=30.0)
        assert result.failures == []
        assert serial.read_bytes() == dist.read_bytes()

    def test_transient_exception_is_retried_across_the_queue(
            self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)

        plan = write_plan(tmp_path, [
            {"point_id": spec.points()[0].point_id, "attempt": 0,
             "kind": "exception"},
        ])
        dist = tmp_path / "dist.json"
        result = run_quiet(spec, workers=2, jobs=1, store_path=dist,
                           shard_dir=tmp_path / "shards",
                           fault_plan=plan)
        assert result.failures == []
        assert serial.read_bytes() == dist.read_bytes()

    def test_poisoned_point_quarantines_with_global_attempts(
            self, tmp_path):
        spec = tiny_spec()
        target = spec.points()[0].point_id
        plan = write_plan(tmp_path, [
            {"point_id": target, "attempt": a, "kind": "exception",
             "message": "poison"} for a in range(3)
        ])
        dist = tmp_path / "dist.json"
        result = run_quiet(spec, workers=2, jobs=1, store_path=dist,
                           shard_dir=tmp_path / "shards",
                           fault_plan=plan, max_retries=2)
        assert result.executed == len(spec) - 1
        assert len(result.failures) == 1
        assert result.failures[0].point_id == target
        assert result.failures[0].attempts == 3
        document = json.loads(dist.read_text())
        assert document["failures"][target]["attempts"] == 3


class TestBuildOncePerHost:
    def test_each_host_builds_every_topology_exactly_once(
            self, tmp_path, monkeypatch):
        """2 hosts x 2 local jobs x 2 topologies -> 2 builds per host."""
        spec = tiny_spec()
        log = tmp_path / "builds.log"
        monkeypatch.setenv(TABLE_BUILD_LOG_ENV, str(log))
        clear_caches()
        result = run_quiet(spec, workers=2, jobs=2,
                           shard_dir=tmp_path / "shards")
        assert result.executed == len(spec)
        lines = log.read_text().splitlines()
        builders: dict[str, set[str]] = {}
        for line in lines:
            fingerprint, pid = line.split()[:2]
            builders.setdefault(fingerprint, set()).add(pid)
        # Two unique topologies (bucket_size 4 and 8); each built by
        # at most one process per host that touched it, and never
        # twice by the same process.
        assert len(builders) == 2
        assert len(lines) == sum(len(pids) for pids in builders.values())
        for fingerprint, pids in builders.items():
            assert 1 <= len(pids) <= 2, (
                f"{fingerprint} built by {len(pids)} processes: "
                f"more than one build per host"
            )


class TestDistributedExecutorEdges:
    def test_requires_matching_base_config(self, tmp_path):
        spec = tiny_spec()
        executor = DistributedExecutor(2, spec=spec)
        other = FastSimulationConfig(n_nodes=80)
        with pytest.raises(ConfigurationError, match="spec"):
            executor.run(other, spec.points())

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            DistributedExecutor(0, spec=tiny_spec())

    def test_empty_point_list_is_a_noop(self):
        executor = DistributedExecutor(2, spec=tiny_spec())
        assert executor.run(TINY, []) == []

    def test_make_executor_requires_spec_for_workers(self):
        from repro.sweeps import make_executor

        with pytest.raises(ConfigurationError, match="spec"):
            make_executor(1, workers=2)

    @pytest.mark.parametrize("options, message", [
        ({"max_retries": -1}, "max_retries"),
        ({"lease_timeout": 0.0}, "lease_timeout"),
    ])
    def test_sweep_serve_refuses_before_opening_the_store(
            self, tmp_path, options, message):
        from repro.sweeps import sweep_serve

        spec = tiny_spec()
        store = tmp_path / "main.json"
        run_quiet(spec, store_path=store)
        before = store.read_bytes()
        with pytest.raises(ConfigurationError, match=message):
            sweep_serve(spec, store_path=store, resume=False, **options)
        assert store.read_bytes() == before


class TestServeWorkSubprocesses:
    def test_multi_machine_protocol_end_to_end(self, tmp_path):
        """sweep-serve + two sweep-work processes == serial bytes."""
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else [])
        )
        spec_args = ["--grid", "bucket_size=4,8", "--seeds", "2",
                     "--backend", "fast", "--nodes", "60", "--files", "8"]
        # The spec the CLI flags above expand to; its serial store is
        # the byte-identity reference.
        cli_spec = SweepSpec(
            base=FastSimulationConfig(n_nodes=60, n_files=8),
            grid={"bucket_size": (4, 8)}, backends=("fast",), seeds=2,
        )
        serial = tmp_path / "serial.json"
        run_sweep(cli_spec, jobs=1, store_path=serial)

        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep-serve",
             *spec_args, "--port", "0",
             "--store", str(tmp_path / "main.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=tmp_path,
        )
        url = None
        try:
            for _ in range(100):
                line = serve.stdout.readline()
                match = re.search(r"(http://[\d.]+:\d+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, "sweep-serve never printed its URL"
            hosts = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "sweep-work",
                     "--queue", url, "--worker-id", f"host-{tag}",
                     "--store", str(tmp_path / f"shard-{tag}.json")],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True, env=env, cwd=tmp_path,
                )
                for tag in ("a", "b")
            ]
            for host in hosts:
                output, _ = host.communicate(timeout=300)
                assert host.returncode == 0, output
            assert serve.wait(timeout=60) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()

        main_store = tmp_path / "main.json"
        assert main_store.read_bytes() == serial.read_bytes()
        shards = [SweepStore.load(tmp_path / f"shard-{tag}.json")
                  for tag in ("a", "b")]
        merged = SweepStore.merge(shards, path=tmp_path / "merged.json")
        merged.save()
        assert (tmp_path / "merged.json").read_bytes() \
            == serial.read_bytes()
