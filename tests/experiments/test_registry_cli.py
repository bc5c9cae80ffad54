"""Tests for the experiment registry and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.registry import (
    REGISTRY,
    get_experiment,
    list_experiments,
)

#: Sizes that keep a sweep which got past its refusal small.
TINY = ["--files", "10", "--nodes", "20"]


def assert_refused(capsys, argv, message, command="run"):
    """*argv* exits 2 with one ``error:`` line on stderr, no traceback,
    and prints nothing on stdout before refusing."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"repro-swarm {command}: error: ")
    assert message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestRegistry:
    def test_paper_artifacts_registered(self):
        for name in ("table1", "fig4", "fig5", "fig6", "headline"):
            spec = get_experiment(name)
            assert spec.paper_artifact is not None

    def test_ablations_registered(self):
        for name in ("k_sweep", "bucket0", "pricing", "popularity",
                     "caching", "freeriders", "baselines", "churn",
                     "sensitivity"):
            assert get_experiment(name).paper_artifact is None

    def test_one_runner_per_question(self):
        # Each of these was folded into the runner that answers the
        # same question (caching, churn, sensitivity).
        assert len(REGISTRY) == 22
        for name in ("caching_fast", "churn_fast", "table1_sweep",
                     "fig5_sweep", "k_sweep_ci"):
            with pytest.raises(ExperimentError, match="unknown"):
                get_experiment(name)

    def test_unknown_name_raises_with_list(self):
        with pytest.raises(ExperimentError, match="table1"):
            get_experiment("bogus")

    def test_list_puts_paper_artifacts_first(self):
        specs = list_experiments()
        first_ablation = next(
            i for i, spec in enumerate(specs) if spec.paper_artifact is None
        )
        assert all(
            spec.paper_artifact is None for spec in specs[first_ablation:]
        )

    def test_every_runner_is_callable(self):
        for spec in REGISTRY.values():
            assert callable(spec.runner)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "Table I" in output

    def test_run_command_scaled_down(self, capsys):
        code = main(["run", "table1", "--files", "60", "--nodes", "100"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Average forwarded chunks" in output
        assert "completed in" in output

    def test_run_markdown(self, capsys):
        code = main([
            "run", "table1", "--files", "60", "--nodes", "100",
            "--markdown",
        ])
        assert code == 0
        assert "| configuration |" in capsys.readouterr().out

    def test_run_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main([
            "run", "table1", "--files", "60", "--nodes", "100",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "Average forwarded chunks" in out.read_text()

    def test_unknown_experiment_refused(self, capsys):
        assert_refused(capsys, ["run", "bogus"], "unknown experiment")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--backend", "bogus", *TINY], "unknown backend 'bogus'"),
        (["sweep", "--jobs", "0", *TINY], "jobs must be >= 1"),
        (["sweep", "--seeds", "0", *TINY], "seeds must be >= 1"),
        (["serve", "--max-batch", "0", "--input", "-"],
         "batch_files must be >= 1"),
        (["sweep", "--workers", "0", *TINY], "workers must be >= 1"),
        # Refused before the queue is contacted (nothing listens on
        # port 9) and before the shard store is written.
        (["sweep-work", "--queue", "http://127.0.0.1:9", "--store",
          "shard.json", "--jobs", "0"], "jobs must be >= 1"),
    ])
    def test_refused_option_values_exit_2(self, capsys, tmp_path,
                                          monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert_refused(capsys, argv, message, command=argv[0])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", [
        ("sweep", ["--max-retries", "-1"]),
        ("sweep", ["--lease-timeout", "0"]),
        ("sweep", ["--lease-timeout", "0", "--workers", "1"]),
        ("sweep", ["--point-timeout", "-1"]),
        ("sweep-serve", ["--max-retries", "-1"]),
        ("sweep-serve", ["--lease-timeout", "0"]),
    ])
    def test_refused_option_leaves_the_store_untouched(
            self, capsys, tmp_path, command, option):
        # Refused before anything prints, and before --no-resume can
        # overwrite the store with an empty one.
        store = tmp_path / "sweep.json"
        assert main(["sweep", *TINY, "--seeds", "2",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        before = store.read_bytes()
        assert_refused(capsys, [command, *TINY, "--seeds", "2",
                                "--store", str(store), "--no-resume",
                                *option],
                       option[0][2:].replace("-", "_"), command=command)
        assert store.read_bytes() == before

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestOverlayCli:
    def test_build_and_inspect_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "overlay.json"
        code = main([
            "overlay", "build", str(path),
            "--nodes", "50", "--bits", "10", "--seed", "3",
        ])
        assert code == 0
        assert path.exists()
        assert "50 nodes" in capsys.readouterr().out

        code = main(["overlay", "inspect", str(path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "routing table of" in output
        assert "bucket occupancy" in output

    def test_inspect_specific_node(self, tmp_path, capsys):
        path = tmp_path / "overlay.json"
        main([
            "overlay", "build", str(path),
            "--nodes", "50", "--bits", "10", "--seed", "3",
        ])
        capsys.readouterr()
        from repro.kademlia.overlay import Overlay

        node = Overlay.load(path).addresses[5]
        code = main(["overlay", "inspect", str(path),
                     "--node", str(node)])
        assert code == 0
        assert f"(={node})" in capsys.readouterr().out


class TestBackendOption:
    def test_backends_command_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in ("fast", "reference", "tit_for_tat"):
            assert name in output

    def test_run_with_backend(self, capsys):
        code = main([
            "run", "table1", "--files", "40", "--nodes", "90",
            "--backend", "reference",
        ])
        assert code == 0
        assert "Average forwarded chunks" in capsys.readouterr().out

    def test_unsupported_backend_is_ignored_with_note(self, capsys):
        code = main([
            "run", "fig3", "--backend", "reference",
        ])
        assert code == 0
        assert "ignored" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["bogus", "fast-perfile"])
    def test_unknown_backend_refused(self, capsys, name):
        assert_refused(capsys, ["run", "table1", "--files", "40",
                                "--nodes", "90", "--backend", name],
                       "unknown backend")

    def test_backend_flags_marked_in_registry(self):
        assert get_experiment("table1").supports_backend
        assert get_experiment("k_sweep").supports_backend
        assert not get_experiment("fig3").supports_backend

    def test_non_replaying_backend_rejected(self, capsys):
        assert_refused(capsys, ["run", "k_sweep", "--files", "40",
                                "--nodes", "90", "--backend", "tit_for_tat"],
                       "does not replay")
