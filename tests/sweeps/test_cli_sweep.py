"""CLI tests for ``repro-swarm sweep`` and the registry smoke run."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.cli import build_parser, main
from repro.sweeps import SweepStore

SMALL = ["--files", "40", "--nodes", "60", "--seeds", "2"]


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.grid == []
        assert args.seeds == 3
        assert args.backend == "fast"
        assert args.jobs == 1
        assert args.store is None

    def test_grid_repeatable_and_jobs(self):
        args = build_parser().parse_args([
            "sweep", "--grid", "bucket_size=4,8",
            "--grid", "originator_share=0.2,1.0",
            "--jobs", "4", "--seeds", "10",
            "--backend", "fast,reference",
        ])
        assert args.grid == [
            "bucket_size=4,8", "originator_share=0.2,1.0"
        ]
        assert args.jobs == 4
        assert args.seeds == 10
        assert args.backend == "fast,reference"


class TestSweepCommand:
    def test_runs_grid_and_reports_cis(self, capsys):
        code = main([
            "sweep", "--grid", "bucket_size=4,8", *SMALL,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "4 points" in output  # 2 cells x 1 backend x 2 seeds
        assert "bucket_size=4" in output
        assert "bucket_size=8" in output
        assert "points/s" in output

    def test_bad_grid_field_raises_with_fields(self, capsys):
        assert main(["sweep", "--grid", "bogus=1", *SMALL]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-swarm sweep: error: ")
        assert "sweepable fields" in err

    @pytest.mark.parametrize("grid", ["churn_offline_fraction=0.1",
                                      "caching=true"])
    def test_removed_dynamics_field_refused_in_one_line(self, capsys,
                                                        grid):
        # Churn and caching are spelled only through --scenario.
        assert main(["sweep", "--grid", grid, *SMALL]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro-swarm sweep: error: unknown sweep "
                                 f"field {grid.partition('=')[0]!r}")

    def test_bad_backend_raises_with_known_names(self, capsys):
        assert main([
            "sweep", "--grid", "bucket_size=4",
            "--backend", "bogus", *SMALL,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-swarm sweep: error: ")
        assert "available" in err

    def test_store_round_trip_and_resume(self, tmp_path, capsys):
        store = tmp_path / "sweep.json"
        code = main([
            "sweep", "--grid", "bucket_size=4,8", *SMALL,
            "--store", str(store),
        ])
        assert code == 0
        capsys.readouterr()

        loaded = SweepStore.load(store)
        assert len(loaded) == 4
        document = json.loads(store.read_text())
        assert document["format"].startswith("repro-swarm-sweep")

        # Second invocation resumes every point from the store.
        code = main([
            "sweep", "--grid", "bucket_size=4,8", *SMALL,
            "--store", str(store),
        ])
        assert code == 0
        assert "resumed from store" in capsys.readouterr().out

    def test_fully_offline_point_is_stored_not_quarantined(self, tmp_path,
                                                          capsys):
        store = tmp_path / "sweep.json"
        assert main(["sweep", "--scenario", "churn:rate=1.0",
                     "--seeds", "1", "--files", "10", "--nodes", "30",
                     "--store", str(store)]) == 0
        assert "quarantined" not in capsys.readouterr().out
        document = json.loads(store.read_text())
        assert document.get("failures", {}) == {}
        [point] = document["points"].values()
        assert point["metrics"]["f1_gini"] == 0.0
        assert point["metrics"]["availability"] == 0.0

    def test_jobs_flag_runs_multiprocess(self, capsys, monkeypatch):
        # Tiny but real: exercises the spawn pool end to end. The CPU
        # count is pinned to 1 so the oversubscription warning fires
        # deterministically and is asserted instead of leaking.
        from .test_determinism import expect_oversubscription_warning

        with expect_oversubscription_warning(monkeypatch):
            code = main([
                "sweep", "--grid", "bucket_size=4", "--jobs", "2",
                "--files", "10", "--nodes", "40", "--seeds", "2",
            ])
        assert code == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_fault_tolerance_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.max_retries == 2
        assert args.point_timeout is None
        assert args.keep_going is True
        assert args.fault_plan is None
        assert args.salvage_store is False

    def test_fail_fast_flag_flips_keep_going(self):
        args = build_parser().parse_args(["sweep", "--fail-fast"])
        assert args.keep_going is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--keep-going", "--fail-fast"]
            )

    def test_quarantine_reports_and_exits_nonzero(self, tmp_path,
                                                  capsys):
        # A poison point (faulted on every attempt) is quarantined;
        # the CLI summarizes it and exits 1.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [
            {"point_id": "fast|bucket_size=4|r0", "attempt": a,
             "kind": "exception", "message": "poison"}
            for a in range(2)
        ]}))
        store = tmp_path / "sweep.json"
        code = main([
            "sweep", "--grid", "bucket_size=4", *SMALL,
            "--store", str(store), "--fault-plan", str(plan),
            "--max-retries", "1",
        ])
        assert code == 1
        output = capsys.readouterr().out
        assert "1 point(s) quarantined" in output
        assert "poison" in output
        document = json.loads(store.read_text())
        assert "fast|bucket_size=4|r0" in document["failures"]

    def test_salvage_store_flag_recovers_corrupt_store(self, tmp_path,
                                                       capsys):
        store = tmp_path / "sweep.json"
        argv = ["sweep", "--grid", "bucket_size=4", *SMALL,
                "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        clean = store.read_bytes()
        store.write_bytes(clean[: len(clean) // 3])

        assert main(argv) == 2
        assert "cannot read" in capsys.readouterr().err
        with pytest.warns(RuntimeWarning, match="salvaged"):
            code = main(argv + ["--salvage-store"])
        assert code == 0
        assert store.read_bytes() == clean

    def test_non_utf8_store_is_refused_in_one_line(self, tmp_path,
                                                   capsys):
        store = tmp_path / "sweep.json"
        argv = ["sweep", "--grid", "bucket_size=4", *SMALL,
                "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        clean = store.read_bytes()
        middle = len(clean) // 2
        store.write_bytes(clean[:middle] + b"\xff" + clean[middle + 1:])

        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"cannot read sweep store {store}: line " in err[0]
        assert "is not UTF-8" in err[0]
        assert "--salvage-store" in err[0]
        # Salvage keeps what precedes the bad line and re-runs the rest.
        with pytest.warns(RuntimeWarning) as caught:
            assert main(argv + ["--salvage-store"]) == 0
        assert any("is not UTF-8" in str(w.message) for w in caught)
        assert store.read_bytes() == clean

    @pytest.mark.parametrize("plan_bytes, message", [
        (b'{"faults": []}\n\xff\n', "line 2 is not UTF-8"),
        (b'{"faults": [', "not JSON"),
        (b'{"faults": [5]}', "entry is an object"),
    ])
    def test_bad_fault_plan_is_refused_before_any_point_runs(
            self, tmp_path, capsys, plan_bytes, message):
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_bytes)
        store = tmp_path / "sweep.json"
        code = main(["sweep", "--grid", "bucket_size=4", *SMALL,
                     "--store", str(store), "--fault-plan", str(plan)])
        captured = capsys.readouterr()
        assert code == 2
        err = captured.err.splitlines()
        assert len(err) == 1
        assert f"cannot read fault plan {plan}: " in err[0]
        assert message in err[0]
        assert not store.exists()

    def test_markdown_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.md"
        code = main([
            "sweep", "--grid", "bucket_size=4", *SMALL,
            "--markdown", "--out", str(out),
        ])
        assert code == 0
        assert "| backend |" in out.read_text()
        assert f"report written to {out}" in capsys.readouterr().out


CROSS_CHECK_CELLS = [
    f"bucket_size={k},originator_share={share}|r{replica}"
    for k, share, replica in itertools.product((4, 8), (0.2, 1.0), (0, 1))
]


@pytest.fixture(scope="module")
def fast_reference_sweep(tmp_path_factory):
    """One ``--backend fast,reference`` sweep, stored to JSON."""
    store = tmp_path_factory.mktemp("cross-check") / "sweep.json"
    code = main([
        "sweep", "--grid", "bucket_size=4,8",
        "--grid", "originator_share=0.2,1.0",
        "--backend", "fast,reference", *SMALL, "--store", str(store),
    ])
    assert code == 0
    return SweepStore.load(store).points


class TestReferenceMatchesFast:
    """End to end through the sweep engine: each ``reference`` point's
    stored metrics equal its ``fast`` twin's on every shared key."""

    def test_every_point_has_a_twin(self, fast_reference_sweep):
        assert sorted(fast_reference_sweep) == sorted(
            f"{backend}|{cell}" for backend in ("fast", "reference")
            for cell in CROSS_CHECK_CELLS
        )

    @pytest.mark.parametrize("cell", CROSS_CHECK_CELLS)
    def test_reference_point_equals_fast_twin(self, fast_reference_sweep,
                                              cell):
        reference = fast_reference_sweep[f"reference|{cell}"]["metrics"]
        fast = fast_reference_sweep[f"fast|{cell}"]["metrics"]
        shared = sorted(set(reference) & set(fast))
        assert "f2_gini" in shared and "total_hops" in shared
        assert {key: reference[key] for key in shared} == {
            key: fast[key] for key in shared
        }


class TestRegistrySmoke:
    def test_run_all_scaled_down_passes_through_registry(self, capsys):
        """Every registered experiment — including the replicated
        sweep runner — still executes end to end at smoke scale."""
        code = main(["run", "all", "--files", "50", "--nodes", "120"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("table1", "sensitivity", "caching", "churn",
                     "baselines", "storage"):
            assert f"[{name} completed in" in output
