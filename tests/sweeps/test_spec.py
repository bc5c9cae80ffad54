"""Tests for SweepSpec expansion, seed derivation, and grid parsing."""

from __future__ import annotations

import pytest

from repro.backends.config import FastSimulationConfig
from repro.errors import ConfigurationError
from repro.sweeps import (
    SweepSpec,
    parse_grid_arguments,
    parse_grid_value,
    replica_seeds,
    sweepable_fields,
)

from .seed_oracle import replica_seed

TINY = FastSimulationConfig(
    n_nodes=40, bits=10, n_files=4, file_min=2, file_max=4
)


class TestSeedDerivation:
    def test_seeds_are_deterministic(self):
        assert replica_seeds(2022, 5) == replica_seeds(2022, 5)

    def test_seed_depends_only_on_entropy_and_replica(self):
        # Asking for more replicas never changes the earlier ones —
        # the property that makes parallel execution order-free.
        assert replica_seeds(2022, 10)[:3] == replica_seeds(2022, 3)
        for replica in range(8):
            assert replica_seed(2022, replica) == \
                replica_seeds(2022, 8)[replica]

    def test_different_entropy_different_seeds(self):
        assert replica_seeds(1, 4) != replica_seeds(2, 4)


class TestSweepSpec:
    def test_expansion_count_and_order(self):
        spec = SweepSpec(
            base=TINY,
            grid={"bucket_size": (4, 8), "originator_share": (0.2, 1.0)},
            backends=("fast", "reference"),
            seeds=3,
        )
        points = spec.points()
        assert len(points) == len(spec) == 2 * 2 * 2 * 3
        assert [p.index for p in points] == list(range(len(points)))
        # Backend-major, then cells, then replicas.
        assert points[0].backend == "fast"
        assert points[len(points) // 2].backend == "reference"
        assert [p.replica for p in points[:3]] == [0, 1, 2]

    def test_replica_seeds_shared_across_cells_and_backends(self):
        spec = SweepSpec(
            base=TINY, grid={"bucket_size": (4, 8)},
            backends=("fast", "reference"), seeds=2,
        )
        seeds_by_replica: dict[int, set[int]] = {}
        for point in spec.points():
            seeds_by_replica.setdefault(
                point.replica, set()
            ).add(point.workload_seed)
        for replica, seeds in seeds_by_replica.items():
            assert len(seeds) == 1, (
                f"replica {replica} saw different seeds across cells"
            )

    def test_point_ids_unique_and_stable(self):
        spec = SweepSpec(
            base=TINY, grid={"bucket_size": (4, 8)}, seeds=2,
        )
        ids = [p.point_id for p in spec.points()]
        assert len(set(ids)) == len(ids)
        assert ids == [p.point_id for p in spec.points()]

    def test_point_config_binds_overrides_and_seed(self):
        spec = SweepSpec(base=TINY, grid={"bucket_size": (8,)}, seeds=1)
        point = spec.points()[0]
        config = point.config(spec.base)
        assert config.bucket_size == 8
        assert config.workload_seed == point.workload_seed
        assert config.n_nodes == TINY.n_nodes

    def test_empty_grid_is_one_cell(self):
        spec = SweepSpec(base=TINY, seeds=4)
        assert spec.cells() == [()]
        assert len(spec.points()) == 4

    def test_scalar_grid_value_normalized(self):
        spec = SweepSpec(base=TINY, grid={"bucket_size": 8})
        assert spec.grid == (("bucket_size", (8,)),)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="sweepable fields"):
            SweepSpec(base=TINY, grid={"bogus_field": (1,)})

    def test_workload_seed_reserved(self):
        with pytest.raises(ConfigurationError, match="workload_seed"):
            SweepSpec(base=TINY, grid={"workload_seed": (1, 2)})

    def test_bad_value_fails_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="pricing"):
            SweepSpec(base=TINY, grid={"pricing": ("bogus",)})

    @pytest.mark.parametrize("name", ["nope", "freerider", ""])
    def test_unknown_backend_fails_at_spec_time(self, name):
        with pytest.raises(ConfigurationError,
                           match="unknown backend.*'tit_for_tat'"):
            SweepSpec(base=TINY, backends=("fast", name))

    def test_stored_spec_naming_an_unknown_backend_refused(self):
        payload = SweepSpec(base=TINY).to_json()
        payload["backends"] = ["freerider"]
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepSpec.from_json(payload)

    def test_needs_backend_and_seeds(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SweepSpec(base=TINY, backends=())
        with pytest.raises(ConfigurationError, match="seeds"):
            SweepSpec(base=TINY, seeds=0)

    def test_json_round_trip(self):
        spec = SweepSpec(
            base=TINY,
            grid={"bucket_size": (4, 8), "scenario": ("", "caching")},
            backends=("fast",),
            seeds=3,
            seed_entropy=99,
        )
        assert SweepSpec.from_json(spec.to_json()) == spec


class TestGridParsing:
    def test_typed_values(self):
        assert parse_grid_value("bucket_size", "4,8,16") == (4, 8, 16)
        assert parse_grid_value("originator_share", "0.2,1.0") == (0.2, 1.0)
        assert parse_grid_value("pricing", "xor,flat") == ("xor", "flat")
        assert parse_grid_value("bucket_zero", "none,8") == (None, 8)

    def test_unknown_field(self):
        with pytest.raises(ConfigurationError, match="sweepable fields"):
            parse_grid_value("bogus", "1")

    def test_workload_seed_hint(self):
        with pytest.raises(ConfigurationError, match="--seeds"):
            parse_grid_value("workload_seed", "1,2")

    def test_unparsable_value(self):
        with pytest.raises(ConfigurationError, match="bucket_size"):
            parse_grid_value("bucket_size", "four")

    def test_arguments_parsing(self):
        grid = parse_grid_arguments(
            ["bucket_size=4,8", "originator_share=0.2"]
        )
        assert grid == {
            "bucket_size": (4, 8), "originator_share": (0.2,)
        }

    def test_malformed_argument(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_grid_arguments(["bucket_size"])

    def test_duplicate_field(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            parse_grid_arguments(["bucket_size=4", "bucket_size=8"])

    def test_sweepable_fields_exclude_reserved(self):
        fields = sweepable_fields()
        assert "workload_seed" not in fields
        assert "bucket_size" in fields and fields["bucket_size"] is int

    def test_sweepable_fields_hold_no_removed_dynamics_field(self):
        # Churn and caching are spelled only through ``scenario``.
        fields = sweepable_fields()
        for name in ("caching", "churn_offline_fraction", "churn_seed",
                     "churn_recompute_storers"):
            assert name not in fields
        assert "scenario" in fields
