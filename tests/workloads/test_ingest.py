"""Tests for the gateway request-log importer."""

from __future__ import annotations

import io
import json

import pytest

from repro.backends.fast import FastSimulationConfig
from repro.cli import main
from repro.errors import WorkloadError
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.workloads.ingest import (
    RequestImportSummary,
    import_requests,
    stable_hash,
)
from repro.serve import run_serve
from repro.workloads.traces import WorkloadTrace


@pytest.fixture(scope="module")
def overlay():
    return Overlay.build(OverlayConfig(
        n_nodes=60, bits=10, limits=BucketLimits.uniform(4), seed=5,
    ))


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("12D3KooWA") == stable_hash("12D3KooWA")

    def test_spreads_distinct_inputs(self):
        values = {stable_hash(f"peer-{i}") % 97 for i in range(200)}
        assert len(values) > 50


class TestImportRequests:
    def test_direct_and_hashed_mapping(self, overlay, tmp_path):
        addresses = overlay.address_array()
        member = int(addresses[7])
        out = tmp_path / "trace.ndjson"
        log = [
            json.dumps({"client": member, "chunks": [3, 9]}) + "\n",
            json.dumps({"client": "peerA", "cid": "bafy1"}) + "\n",
            "# a comment\n",
            "\n",
            json.dumps({"originator": "peerA", "chunk": 12}) + "\n",
        ]
        summary = import_requests(log, out, overlay=overlay)
        assert summary == RequestImportSummary(
            files=3, chunks=4, direct_clients=1, hashed_clients=2,
            direct_chunks=3, hashed_chunks=1, skipped_lines=2,
        )
        trace = WorkloadTrace.load(out)
        events = list(trace)
        assert events[0].originator == member
        assert list(events[0].chunk_addresses) == [3, 9]
        # Same string client on both lines -> same hashed node.
        assert events[1].originator == events[2].originator
        assert int(events[1].originator) in set(
            int(a) for a in addresses
        )

    def test_import_is_deterministic(self, overlay, tmp_path):
        log = [
            json.dumps({"client": f"peer-{i}", "cid": f"c-{i}"}) + "\n"
            for i in range(30)
        ]
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        import_requests(log, first, overlay=overlay)
        import_requests(log, second, overlay=overlay)
        assert first.read_bytes() == second.read_bytes()

    def test_imported_trace_replays_through_engine(self, overlay,
                                                   tmp_path):
        out = tmp_path / "trace.ndjson"
        log = [
            json.dumps({"client": f"peer-{i}",
                        "chunks": [f"c-{i}-{j}" for j in range(4)]})
            + "\n"
            for i in range(20)
        ]
        import_requests(log, out, overlay=overlay)
        config = FastSimulationConfig(
            n_nodes=60, bits=10, bucket_size=4, overlay_seed=5,
            n_files=20,
        )
        with open(out, encoding="utf-8") as lines:
            result = run_serve(config, lines, io.StringIO(), max_batch=8)
        assert result.files == 20
        assert result.chunks == 80

    def test_bad_lines_name_the_line(self, overlay, tmp_path):
        out = tmp_path / "trace.ndjson"
        with pytest.raises(WorkloadError, match="line 1"):
            import_requests(["{nope\n"], out, overlay=overlay)
        with pytest.raises(WorkloadError, match="line 1"):
            import_requests(["[1]\n"], out, overlay=overlay)
        with pytest.raises(WorkloadError, match="client"):
            import_requests(
                ['{"chunks": [1]}\n'], out, overlay=overlay
            )
        with pytest.raises(WorkloadError, match="content"):
            import_requests(
                ['{"client": 5}\n'], out, overlay=overlay
            )
        with pytest.raises(WorkloadError, match="content"):
            import_requests(
                ['{"client": 5, "chunks": []}\n'], out, overlay=overlay
            )

    def test_empty_log_rejected(self, overlay, tmp_path):
        out = tmp_path / "trace.ndjson"
        with pytest.raises(WorkloadError, match="no events"):
            import_requests(["\n", "# only comments\n"], out,
                            overlay=overlay)


class TestImportRequestsCli:
    def test_cli_import_then_stream(self, tmp_path, capsys):
        log = tmp_path / "gateway.log"
        log.write_text("".join(
            json.dumps({"client": f"peer-{i}", "cid": f"c-{i}"}) + "\n"
            for i in range(10)
        ))
        out = tmp_path / "trace.ndjson"
        code = main([
            "trace", "import-requests", str(log), str(out),
            "--nodes", "60", "--bits", "10", "--overlay-seed", "5",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "10 requests / 10 chunks imported" in printed
        header = json.loads(out.read_text().splitlines()[0])
        assert header["bits"] == 10
        assert header["n_nodes"] == 60
        assert header["overlay_seed"] == 5
