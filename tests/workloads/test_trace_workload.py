"""Tests for trace replay (TraceWorkload) and the trace CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.backends.fast import FastSimulation, FastSimulationConfig
from repro.kademlia.address import AddressSpace
from repro.workloads.distributions import UniformFileSize
from repro.workloads.generators import DownloadWorkload
from repro.workloads.traces import TraceWorkload, WorkloadTrace


def make_trace(nodes, space, n_files=10):
    workload = DownloadWorkload(
        n_files=n_files, file_size=UniformFileSize(3, 9), seed=2,
    )
    return WorkloadTrace(workload.materialize(nodes, space))


class TestTraceWorkload:
    def test_replay_yields_identical_events(self):
        space = AddressSpace(10)
        nodes = np.arange(40, dtype=np.uint64)
        trace = make_trace(nodes, space)
        replayed = list(TraceWorkload(trace).events(nodes, space))
        for original, replay in zip(trace, replayed):
            assert original.originator == replay.originator
            assert np.array_equal(
                original.chunk_addresses, replay.chunk_addresses
            )

    def test_foreign_originator_rejected(self):
        space = AddressSpace(10)
        nodes = np.arange(40, dtype=np.uint64)
        trace = make_trace(nodes, space)
        other_population = np.arange(100, 140, dtype=np.uint64)
        with pytest.raises(WorkloadError, match="originator"):
            list(TraceWorkload(trace).events(other_population, space))

    def test_oversized_chunk_rejected(self):
        space = AddressSpace(10)
        nodes = np.arange(40, dtype=np.uint64)
        trace = make_trace(nodes, space)
        small_space = AddressSpace(4)
        with pytest.raises(WorkloadError, match="space"):
            list(TraceWorkload(trace).events(nodes, small_space))

    def test_replay_through_fast_simulation_is_deterministic(self):
        config = FastSimulationConfig(
            n_nodes=80, bits=11, bucket_size=4, n_files=10,
            overlay_seed=5,
        )
        simulation = FastSimulation(config)
        trace = make_trace(
            simulation.overlay.address_array(), simulation.space
        )
        a = simulation.run(TraceWorkload(trace))
        b = simulation.run(TraceWorkload(trace))
        assert np.array_equal(a.forwarded, b.forwarded)
        assert a.files == 10

    def test_header_bits_mismatch_rejected(self):
        space = AddressSpace(10)
        nodes = np.arange(40, dtype=np.uint64)
        trace = make_trace(nodes, space)
        tagged = WorkloadTrace(
            trace.events, bits=10, n_nodes=40, overlay_seed=1
        )
        with pytest.raises(WorkloadError, match="10-bit space"):
            list(TraceWorkload(tagged).events(nodes, AddressSpace(12)))

    def test_header_population_mismatch_rejected(self):
        space = AddressSpace(10)
        nodes = np.arange(40, dtype=np.uint64)
        trace = make_trace(nodes, space)
        tagged = WorkloadTrace(
            trace.events, bits=10, n_nodes=40, overlay_seed=1
        )
        with pytest.raises(WorkloadError, match="40 nodes"):
            list(TraceWorkload(tagged).events(
                np.arange(50, dtype=np.uint64), space
            ))

    def test_saved_trace_replays_bit_identical_through_fast(self,
                                                            tmp_path):
        """The compact-dtype fix: a save/load round trip through the
        versioned format must not perturb the fast backend at all."""
        config = FastSimulationConfig(
            n_nodes=80, bits=11, bucket_size=4, n_files=10,
            overlay_seed=5, workload_seed=3, file_min=3, file_max=9,
        )
        simulation = FastSimulation(config)
        original = simulation.run()  # the generated workload, batched
        events = config.workload().materialize(
            simulation.overlay.address_array(), simulation.space
        )
        path = tmp_path / "trace.ndjson"
        WorkloadTrace(
            events, bits=config.bits, n_nodes=config.n_nodes,
            overlay_seed=config.overlay_seed,
        ).save(path)
        loaded = WorkloadTrace.load(path)
        # Addresses decode straight into the kernel's compact dtype.
        assert loaded[0].chunk_addresses.dtype == np.uint16
        replayed = simulation.run(TraceWorkload(loaded))
        assert np.array_equal(original.forwarded, replayed.forwarded)
        assert np.array_equal(original.first_hop, replayed.first_hop)
        assert np.array_equal(original.income, replayed.income)
        assert np.array_equal(
            original.expenditure, replayed.expenditure
        )
        assert original.hop_histogram == replayed.hop_histogram


class TestTraceCli:
    def test_generate_and_replay_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.ndjson"
        code = main([
            "trace", "generate", str(trace_path),
            "--files", "5", "--nodes", "100", "--bits", "12",
        ])
        assert code == 0
        assert trace_path.exists()
        assert "trace written" in capsys.readouterr().out

        code = main([
            "trace", "replay", str(trace_path), "--bucket-size", "4",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "replayed" in output
        assert "F2 Gini" in output

    def test_replay_defaults_come_from_the_header(self, tmp_path, capsys):
        # No --nodes/--bits/--overlay-seed on replay: the header knows
        # what the trace was generated for.
        trace_path = tmp_path / "trace.ndjson"
        main([
            "trace", "generate", str(trace_path),
            "--files", "5", "--nodes", "90", "--bits", "12",
            "--overlay-seed", "3",
        ])
        capsys.readouterr()
        assert main(["trace", "replay", str(trace_path)]) == 0
        assert "replayed" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--nodes", "--bits",
                                      "--overlay-seed"])
    def test_replay_has_no_overlay_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit):
            main(["trace", "replay", str(tmp_path / "t.ndjson"), flag,
                  "12"])

    def test_replay_refuses_a_single_document_trace(self, tmp_path,
                                                    capsys):
        trace_path = tmp_path / "old.json"
        trace_path.write_text(json.dumps({
            "format": "repro-swarm-trace/1", "bits": 12, "n_nodes": 90,
            "overlay_seed": 3,
            "events": [{"file_id": 0, "originator": 1, "chunks": [2]}],
        }))
        assert main(["trace", "replay", str(trace_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"repro-swarm trace replay: error: cannot read request "
            f"trace {trace_path}: format tag 'repro-swarm-trace/1'"
        )


class TestDynamicsCli:
    def test_record_and_replay_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "dynamics.json"
        code = main([
            "trace", "record-dynamics", str(path),
            "--scenario", "churn:rate=0.1,recompute=true+caching:size=64",
            "--files", "30", "--nodes", "120", "--bits", "12",
            "--batch-files", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamics trace written" in out
        assert "4 epoch(s)" in out

        code = main([
            "trace", "replay-dynamics", str(path),
            "--files", "30", "--batch-files", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replaying dynamics" in out
        assert "F2 Gini" in out

    def test_replay_dynamics_composes_extra_scenario(self, tmp_path,
                                                     capsys):
        path = tmp_path / "dynamics.json"
        main([
            "trace", "record-dynamics", str(path),
            "--scenario", "churn:rate=0.2",
            "--files", "30", "--nodes", "120", "--bits", "12",
            "--batch-files", "8",
        ])
        capsys.readouterr()
        code = main([
            "trace", "replay-dynamics", str(path),
            "--files", "30", "--batch-files", "8",
            "--compose", "freeriding:fraction=0.3",
        ])
        assert code == 0
        assert "replaying dynamics" in capsys.readouterr().out

    def test_record_rejects_bad_scenario(self, tmp_path, capsys):
        assert main([
            "trace", "record-dynamics",
            str(tmp_path / "dynamics.json"),
            "--scenario", "warp:factor=9",
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_request_and_dynamics_formats_do_not_mix(self, tmp_path,
                                                     capsys):
        trace_path = tmp_path / "requests.ndjson"
        main([
            "trace", "generate", str(trace_path),
            "--files", "5", "--nodes", "100", "--bits", "12",
        ])
        capsys.readouterr()
        assert main(["trace", "replay-dynamics", str(trace_path)]) == 2
        assert "this is a request trace" in capsys.readouterr().err
