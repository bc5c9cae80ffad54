"""Tests for the JSON sweep result store."""

from __future__ import annotations

import json

import pytest

from repro.backends.config import FastSimulationConfig
from repro.errors import ConfigurationError
from repro.sweeps import SweepSpec, SweepStore, run_sweep

TINY = FastSimulationConfig(
    n_nodes=40, bits=10, n_files=4, file_min=2, file_max=4
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        base=TINY, grid={"bucket_size": (4, 8)}, backends=("fast",),
        seeds=2,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestStore:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        result = run_sweep(spec, store_path=path)
        assert result.executed == len(spec)

        loaded = SweepStore.load(path)
        assert loaded.spec == spec
        assert loaded.completed_ids() == {
            p.point_id for p in spec.points()
        }
        record = loaded.points[spec.points()[0].point_id]
        assert record["metrics"]["chunks"] > 0

    def test_resume_skips_completed(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        first = run_sweep(spec, store_path=path)
        second = run_sweep(spec, store_path=path)
        assert second.executed == 0
        assert second.resumed == len(spec)
        assert second.records == first.records
        assert second.summaries == first.summaries

    def test_partial_resume_completes_missing_points(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        run_sweep(spec, store_path=path)
        # Drop one recorded point to model an interrupted run.
        store = SweepStore.load(path)
        dropped = spec.points()[-1].point_id
        del store.points[dropped]
        store.save()

        resumed = run_sweep(spec, store_path=path)
        assert resumed.executed == 1
        assert resumed.resumed == len(spec) - 1
        assert SweepStore.load(path).completed_ids() == {
            p.point_id for p in spec.points()
        }

    def test_spec_mismatch_refused(self, tmp_path):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        other = tiny_spec(grid={"bucket_size": (4, 16)})
        with pytest.raises(ConfigurationError, match="different spec"):
            run_sweep(other, store_path=path)

    def test_raised_seed_count_extends_the_store(self, tmp_path):
        # Replica seeds are prefix-stable, so seeds=2 -> seeds=3 only
        # has to execute the third replica of each cell.
        path = tmp_path / "sweep.json"
        first = run_sweep(tiny_spec(seeds=2), store_path=path)
        extended = run_sweep(tiny_spec(seeds=3), store_path=path)
        assert extended.resumed == len(tiny_spec(seeds=2))
        assert extended.executed == len(tiny_spec(seeds=3)) - \
            len(tiny_spec(seeds=2))
        # The shared replicas kept their recorded metrics verbatim.
        for record in first.records:
            match = next(r for r in extended.records
                         if r["point_id"] == record["point_id"])
            assert match == record
        assert SweepStore.load(path).spec == tiny_spec(seeds=3)

    def test_extended_store_matches_fresh_run_bytes(self, tmp_path):
        # Growing seeds=2 -> seeds=3 must leave no trace of the
        # smaller run: the extended store diffs empty against a fresh
        # seeds=3 sweep.
        extended = tmp_path / "extended.json"
        fresh = tmp_path / "fresh.json"
        run_sweep(tiny_spec(seeds=2), store_path=extended)
        run_sweep(tiny_spec(seeds=3), store_path=extended)
        run_sweep(tiny_spec(seeds=3), store_path=fresh)
        assert extended.read_bytes() == fresh.read_bytes()

    def test_lowered_seed_count_refused(self, tmp_path):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(seeds=3), store_path=path)
        with pytest.raises(ConfigurationError, match="different spec"):
            run_sweep(tiny_spec(seeds=2), store_path=path)

    def test_resume_preserves_recorded_provenance(self, tmp_path):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        # Model a resume in a different environment: rewrite the
        # recorded provenance, then resume; the record must survive.
        document = json.loads(path.read_text())
        document["provenance"]["git_commit"] = "0" * 40
        document["provenance"]["python"] = "0.0.0"
        path.write_text(json.dumps(document, indent=2, sort_keys=True))

        run_sweep(tiny_spec(), store_path=path)
        provenance = json.loads(path.read_text())["provenance"]
        assert provenance["git_commit"] == "0" * 40
        assert provenance["python"] == "0.0.0"

    def test_no_resume_overwrites(self, tmp_path):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        other = tiny_spec(grid={"bucket_size": (4, 16)})
        result = run_sweep(other, store_path=path, resume=False)
        assert result.executed == len(other)
        assert SweepStore.load(path).spec == other

    def test_store_is_deterministic_and_diffable(self, tmp_path):
        spec = tiny_spec()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        run_sweep(spec, store_path=path_a)
        run_sweep(spec, store_path=path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_store_records_provenance_and_seed_table(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        run_sweep(spec, store_path=path)
        document = json.loads(path.read_text())
        provenance = document["provenance"]
        assert "git_commit" in provenance
        assert provenance["numpy"]
        assert provenance["seed_table"] == {
            str(r): seed
            for r, seed in enumerate(spec.workload_seeds())
        }

    def test_unreadable_store_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            SweepStore.load(path)

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError, match="sweep store"):
            SweepStore.load(path)


    @pytest.mark.parametrize("field, value", [
        ("caching", True), ("churn_offline_fraction", 0.2),
        ("churn_seed", 99), ("churn_recompute_storers", False),
    ])
    def test_base_with_a_removed_dynamics_field_refused(self, tmp_path,
                                                        field, value):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        document = json.loads(path.read_text())
        document["spec"]["base"][field] = value
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError,
                           match=f"sweep store {path}.*{field}"):
            SweepStore.load(path)


def rewrite(path, document) -> None:
    """Write *document* in the store's own layout (salvage scans it)."""
    path.write_text(json.dumps(document, indent=2, sort_keys=True))


class TestRecordChecks:
    """load() refuses an unusable record; salvage() drops the same one."""

    @pytest.fixture
    def stored(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        run_sweep(spec, store_path=path)
        return path, spec.points()[0].point_id

    @pytest.mark.parametrize("section, change", [
        ("points", {"metrics": "oops"}),
        ("points", {"metrics": None}),
        ("points", {"replica": "1"}),
        ("points", {"replica": True}),
        ("points", {"workload_seed": 1.5}),
        ("points", None),
        ("points", "not-an-object"),
        ("failures", {"replica": "0"}),
        ("failures", ["a", "list"]),
    ], ids=["metrics-string", "metrics-null", "replica-string",
            "replica-bool", "seed-float", "null-record", "string-record",
            "failure-replica-string", "failure-list"])
    def test_bad_record_refused_and_dropped(self, stored, section, change):
        path, point_id = stored
        document = json.loads(path.read_text())
        record = document["points"].pop(point_id)
        if isinstance(change, dict):
            record = {**record, **change}
        else:
            record = change
        document.setdefault(section, {})[point_id] = record
        rewrite(path, document)
        with pytest.raises(ConfigurationError,
                           match=f"{point_id!r}.*--salvage-store"):
            SweepStore.load(path)
        salvaged, notes = SweepStore.salvage(path)
        assert point_id not in salvaged.points
        assert point_id not in salvaged.failures
        assert any("dropped 1 unusable" in note for note in notes)

    def test_record_outside_the_spec_refused(self, stored):
        path, point_id = stored
        document = json.loads(path.read_text())
        document["points"]["fast|bucket_size=99|r0"] = (
            document["points"][point_id])
        rewrite(path, document)
        with pytest.raises(ConfigurationError, match="bucket_size=99"):
            SweepStore.load(path)

    @pytest.mark.parametrize("change", [{"metrics": "oops"},
                                        {"replica": "1"}])
    def test_cli_refuses_a_bad_record_with_exit_2(self, tmp_path, capsys,
                                                  change):
        from repro.cli import main

        path = tmp_path / "sweep.json"
        argv = ["sweep", "--grid", "bucket_size=4,8", "--nodes", "40",
                "--files", "4", "--store", str(path)]
        assert main(argv) == 0
        document = json.loads(path.read_text())
        point_id = min(document["points"])
        document["points"][point_id].update(change)
        rewrite(path, document)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-swarm sweep: error: ")
        assert point_id in err and len(err.splitlines()) == 1
