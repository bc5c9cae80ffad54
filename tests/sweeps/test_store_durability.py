"""Durability and salvage behavior of the JSON sweep store."""

from __future__ import annotations

import json

import pytest

from repro.backends.config import FastSimulationConfig
from repro.errors import ConfigurationError, InputError
from repro.sweeps import SweepSpec, SweepStore, run_sweep

TINY = FastSimulationConfig(
    n_nodes=40, bits=10, n_files=4, file_min=2, file_max=4
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(base=TINY, grid={"bucket_size": (4, 8)},
                    backends=("fast",), seeds=2)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestDurability:
    def test_stale_tmp_file_is_swept_on_open(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        run_sweep(spec, store_path=path)
        # Model a run killed between temp-write and rename.
        stale = path.with_suffix(path.suffix + ".tmp")
        stale.write_text("{ partial garbage")
        with pytest.warns(RuntimeWarning, match="stale sweep store"):
            store = SweepStore.open(path, spec)
        assert not stale.exists()
        # The blessed file was untouched by the sweep-up.
        assert store.completed_ids() == {
            p.point_id for p in spec.points()
        }

    def test_save_leaves_no_tmp_behind(self, tmp_path):
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        assert not path.with_suffix(path.suffix + ".tmp").exists()
        assert path.exists()

    def test_failures_section_omitted_when_empty(self, tmp_path):
        # Byte-compat: healthy stores are identical to stores written
        # before the failures section existed.
        path = tmp_path / "sweep.json"
        run_sweep(tiny_spec(), store_path=path)
        assert "failures" not in json.loads(path.read_text())

    def test_success_supersedes_stale_failure(self, tmp_path):
        spec = tiny_spec()
        store = SweepStore(tmp_path / "s.json", spec)
        point = spec.points()[0]
        store.add_failure({
            "point_id": point.point_id, "backend": point.backend,
            "overrides": dict(point.overrides),
            "replica": point.replica,
            "workload_seed": point.workload_seed,
            "kind": "exception", "error": "ValueError: x",
            "digest": "0" * 16, "attempts": 3,
        })
        assert point.point_id in store.failures
        store.add({"point_id": point.point_id, "backend": point.backend,
                   "overrides": dict(point.overrides),
                   "replica": point.replica,
                   "workload_seed": point.workload_seed,
                   "metrics": {"chunks": 1}})
        assert point.point_id not in store.failures


class TestSalvage:
    def complete_store(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "sweep.json"
        run_sweep(spec, store_path=path)
        return spec, path

    def test_clean_file_salvages_to_itself(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        store, notes = SweepStore.salvage(path)
        assert store.completed_ids() == {
            p.point_id for p in spec.points()
        }
        assert any("cleanly" in note for note in notes)

    def test_truncated_store_recovers_early_records(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        text = path.read_text()
        # Cut mid-way through the points section (keys sort as
        # format < points < provenance < spec, so truncation destroys
        # the spec and provenance first, then eats points records from
        # the back).
        path.write_text(text[: int(len(text) * 0.35)])
        with pytest.raises(ConfigurationError, match="cannot read"):
            SweepStore.load(path)
        store, notes = SweepStore.salvage(path, spec=spec)
        recovered = store.completed_ids()
        assert recovered  # something survived...
        assert recovered < {p.point_id for p in spec.points()}  # ...not all
        for record in store.points.values():
            assert isinstance(record["metrics"], dict)
        assert any("truncated" in note for note in notes)

    def test_truncation_without_spec_needs_a_fallback(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(ConfigurationError, match="salvage"):
            SweepStore.salvage(path)

    def test_corrupt_middle_drops_only_damaged_records(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        text = path.read_text()
        start = text.find('"points":')
        # Stomp a chunk of the first point record with garbage.
        corrupted = text[: start + 40] + "\x00GARBAGE\x00" \
            + text[start + 60:]
        path.write_text(corrupted)
        store, _ = SweepStore.salvage(path, spec=spec)
        assert store.completed_ids() < {
            p.point_id for p in spec.points()
        }

    def test_non_utf8_store_is_refused_with_the_salvage_hint(
            self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"".join(lines))
        with pytest.raises(InputError, match=r"line 4 is not UTF-8.*"
                           r"--salvage-store"):
            SweepStore.load(path)

    def test_non_utf8_line_salvages_what_precedes_it(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        text = path.read_bytes()
        # Corrupt the line after the first points record: that record
        # survives, the rest of the file is lost and will be re-run.
        start = text.index(b'"points":')
        first_end = text.index(b"\n    },\n", start) + len(b"\n    },\n")
        path.write_bytes(text[:first_end] + b"\xff" + text[first_end:])
        store, notes = SweepStore.salvage(path, spec=spec)
        recovered = store.completed_ids()
        assert len(recovered) == 1
        assert recovered < {p.point_id for p in spec.points()}
        assert any("is not UTF-8" in note and "lost" in note
                   for note in notes)

    def test_salvage_drops_records_of_foreign_points(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        document = json.loads(path.read_text())
        a_record = next(iter(document["points"].values()))
        document["points"]["fast|bucket_size=999|r9"] = a_record
        # Break the spec so load() refuses and salvage must validate
        # records against the fallback spec.
        document["spec"] = "not a spec"
        path.write_text(json.dumps(document, indent=2, sort_keys=True))
        store, notes = SweepStore.salvage(path, spec=spec)
        assert "fast|bucket_size=999|r9" not in store.points
        assert any("dropped 1 unusable" in note for note in notes)

    def test_salvaged_resume_matches_clean_run_bytes(self, tmp_path):
        # The round-trip satellite: truncate, salvage, resume — the
        # final store is byte-identical to a never-corrupted run.
        spec, path = self.complete_store(tmp_path)
        clean_bytes = path.read_bytes()
        path.write_bytes(clean_bytes[: int(len(clean_bytes) * 0.35)])
        with pytest.warns(RuntimeWarning, match="salvaged"):
            result = run_sweep(spec, store_path=path, salvage=True)
        assert result.executed > 0
        assert result.executed + result.resumed == len(spec)
        assert path.read_bytes() == clean_bytes

    def test_corrupt_store_without_salvage_still_refuses(self, tmp_path):
        spec, path = self.complete_store(tmp_path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(ConfigurationError, match="cannot read"):
            run_sweep(spec, store_path=path)
