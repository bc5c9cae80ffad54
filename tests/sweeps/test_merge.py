"""Shard-store merging: :meth:`SweepStore.merge` and its CLI surface.

The oracle: shards that partition a sweep merge back to bytes
identical to a serial run's store. Everything else pins the merge
rules — spec equality enforced, point conflicts refused, failure
union with later-attempt-wins / success-supersedes, provenance
collapse — plus the ``sweep --merge-stores`` and ``sweep --dry-run``
CLI paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.backends.config import FastSimulationConfig
from repro.cli import main
from repro.errors import StoreMergeError
from repro.sweeps import (
    SweepSpec,
    SweepStore,
    merge_provenance,
    run_sweep,
    sweep_status,
)

TINY = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(base=TINY, grid={"bucket_size": (4, 8)},
                    backends=("fast",), seeds=2)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def shard_with(tmp_path, spec, name, records=(), failures=()):
    store = SweepStore.open(tmp_path / name, spec)
    for record in records:
        store.add(dict(record))
    for record in failures:
        store.add_failure(dict(record))
    store.save()
    return store


def failure_record(point, *, attempts, error="E: boom"):
    return {
        "point_id": point.point_id, "backend": point.backend,
        "overrides": dict(point.overrides), "replica": point.replica,
        "workload_seed": point.workload_seed, "kind": "exception",
        "error": error, "digest": "d" * 16, "attempts": attempts,
    }


class TestPartitionOracle:
    def test_partitioned_shards_merge_to_serial_bytes(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        result = run_sweep(spec, jobs=1, store_path=serial)
        assert result.failures == []

        full = SweepStore.load(serial)
        ids = sorted(full.points)
        for split in range(len(ids) + 1):
            shards = [
                shard_with(tmp_path, spec, f"a-{split}.json",
                           [{"point_id": i, **full.points[i]}
                            for i in ids[:split]]),
                shard_with(tmp_path, spec, f"b-{split}.json",
                           [{"point_id": i, **full.points[i]}
                            for i in ids[split:]]),
            ]
            merged = SweepStore.merge(
                shards, path=tmp_path / f"merged-{split}.json"
            )
            merged.save()
            assert merged.path.read_bytes() == serial.read_bytes(), (
                f"partition at {split} broke byte-identity"
            )

    def test_overlapping_identical_records_union_cleanly(self, tmp_path):
        spec = tiny_spec()
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)
        full = SweepStore.load(serial)
        records = [{"point_id": i, **r} for i, r in full.points.items()]
        # Both shards saw the middle points (a re-leased overlap).
        shards = [
            shard_with(tmp_path, spec, "a.json", records[:3]),
            shard_with(tmp_path, spec, "b.json", records[1:]),
        ]
        merged = SweepStore.merge(shards, path=tmp_path / "merged.json")
        merged.save()
        assert merged.path.read_bytes() == serial.read_bytes()


class TestMergeRules:
    def test_empty_shard_list_refused(self):
        with pytest.raises(StoreMergeError, match="no shard"):
            SweepStore.merge([])

    def test_spec_mismatch_refused_by_name(self, tmp_path):
        a = shard_with(tmp_path, tiny_spec(), "a.json")
        b = shard_with(tmp_path, tiny_spec(seeds=3), "b.json")
        with pytest.raises(StoreMergeError, match="different spec"):
            SweepStore.merge([a, b])

    def test_conflicting_point_records_refused(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        record = {
            "point_id": point.point_id, "backend": point.backend,
            "overrides": dict(point.overrides),
            "replica": point.replica,
            "workload_seed": point.workload_seed,
            "metrics": {"chunks": 1},
        }
        altered = dict(record, metrics={"chunks": 2})
        a = shard_with(tmp_path, spec, "a.json", [record])
        b = shard_with(tmp_path, spec, "b.json", [altered])
        with pytest.raises(StoreMergeError, match="disagree on point"):
            SweepStore.merge([a, b])

    def test_failure_union_later_attempt_wins(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        a = shard_with(tmp_path, spec, "a.json",
                       failures=[failure_record(point, attempts=1)])
        b = shard_with(tmp_path, spec, "b.json",
                       failures=[failure_record(point, attempts=3)])
        merged = SweepStore.merge([a, b])
        assert merged.failures[point.point_id]["attempts"] == 3

    def test_success_supersedes_failure(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        success = {
            "point_id": point.point_id, "backend": point.backend,
            "overrides": dict(point.overrides),
            "replica": point.replica,
            "workload_seed": point.workload_seed,
            "metrics": {"chunks": 1},
        }
        a = shard_with(tmp_path, spec, "a.json",
                       failures=[failure_record(point, attempts=3)])
        b = shard_with(tmp_path, spec, "b.json", [success])
        for order in ([a, b], [b, a]):
            merged = SweepStore.merge(order)
            assert point.point_id in merged.points
            assert point.point_id not in merged.failures

    def test_equal_attempt_conflict_refused(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        a = shard_with(tmp_path, spec, "a.json",
                       failures=[failure_record(point, attempts=2)])
        b = shard_with(
            tmp_path, spec, "b.json",
            failures=[failure_record(point, attempts=2,
                                     error="E: different")],
        )
        with pytest.raises(StoreMergeError, match="conflicting failure"):
            SweepStore.merge([a, b])


class TestProvenance:
    def test_agreeing_provenance_collapses(self):
        shared = {"git_commit": "abc", "python": "3.12"}
        assert merge_provenance([dict(shared), dict(shared)]) == shared

    def test_disagreeing_provenance_keeps_common_and_shards(self):
        a = {"git_commit": "abc", "python": "3.12"}
        b = {"git_commit": "def", "python": "3.12"}
        merged = merge_provenance([a, b])
        assert merged["python"] == "3.12"
        assert "git_commit" not in merged
        assert sorted(
            shard["git_commit"] for shard in merged["shards"]
        ) == ["abc", "def"]

    def test_all_unknown_is_none(self):
        assert merge_provenance([None, None]) is None


class TestMergeCLI:
    def run_small(self, tmp_path) -> tuple[SweepSpec, Path]:
        spec = SweepSpec(
            base=FastSimulationConfig(n_nodes=60, n_files=8),
            grid={"bucket_size": (4, 8)}, backends=("fast",), seeds=1,
        )
        serial = tmp_path / "serial.json"
        run_sweep(spec, jobs=1, store_path=serial)
        return spec, serial

    def test_merge_stores_round_trip(self, tmp_path, capsys):
        spec, serial = self.run_small(tmp_path)
        full = SweepStore.load(serial)
        ids = sorted(full.points)
        shard_with(tmp_path, spec, "a.json",
                   [{"point_id": i, **full.points[i]} for i in ids[:1]])
        shard_with(tmp_path, spec, "b.json",
                   [{"point_id": i, **full.points[i]} for i in ids[1:]])
        code = main([
            "sweep", "--merge-stores", str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
            "--store", str(tmp_path / "merged.json"),
        ])
        assert code == 0
        assert "merged 2 shard(s)" in capsys.readouterr().out
        assert (tmp_path / "merged.json").read_bytes() \
            == serial.read_bytes()

    def test_merge_stores_requires_output_store(self, tmp_path, capsys):
        assert main(
            ["sweep", "--merge-stores", str(tmp_path / "a.json")]
        ) == 2
        assert "--store" in capsys.readouterr().err


class TestDryRunCLI:
    SMALL = ["--grid", "bucket_size=4", "--seeds", "2",
             "--backend", "fast", "--nodes", "60", "--files", "8"]

    def test_dry_run_without_store_lists_all_pending(self, capsys):
        code = main(["sweep", *self.SMALL, "--dry-run"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 point(s) total" in output
        assert "2 pending" in output
        assert "pending: fast|bucket_size=4|r0" in output

    def test_dry_run_reflects_a_partial_store(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.json"
        code = main(["sweep", *self.SMALL, "--store", str(store_path)])
        assert code == 0
        capsys.readouterr()
        code = main(["sweep", *self.SMALL, "--store", str(store_path),
                     "--dry-run"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 completed, 0 pending" in output
        assert store_path.exists()

    def test_dry_run_executes_nothing(self, tmp_path, capsys):
        store_path = tmp_path / "sweep.json"
        code = main(["sweep", *self.SMALL, "--store", str(store_path),
                     "--dry-run"])
        assert code == 0
        assert not store_path.exists(), "--dry-run must not write"


class TestSweepStatus:
    def test_quarantined_points_are_also_pending(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        store = SweepStore.open(tmp_path / "sweep.json", spec)
        store.add_failure(failure_record(point, attempts=3))
        store.save()
        status = sweep_status(spec, tmp_path / "sweep.json")
        assert status["quarantined"] == [point.point_id]
        assert point.point_id in status["pending"]
        assert status["completed"] == []
