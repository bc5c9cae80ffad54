"""Unit tests for workload traces (repro.workloads.traces)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kademlia.address import AddressSpace
from repro.workloads.generators import DownloadWorkload
from repro.workloads.distributions import UniformFileSize
from repro.workloads.traces import (
    TRACE_NDJSON_FORMAT,
    TraceHeader,
    WorkloadTrace,
)

HEADER = {"format": TRACE_NDJSON_FORMAT, "bits": 10, "n_nodes": 50,
          "overlay_seed": 42}


def write_lines(path, *documents):
    """A file holding one JSON document per line."""
    path.write_text("".join(json.dumps(doc) + "\n" for doc in documents))


def make_trace(**provenance) -> WorkloadTrace:
    workload = DownloadWorkload(n_files=12, seed=4,
                                file_size=UniformFileSize(2, 6))
    events = workload.materialize(
        np.arange(50, dtype=np.uint64), AddressSpace(10)
    )
    return WorkloadTrace(events, **provenance)


class TestWorkloadTrace:
    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadTrace([])

    def test_len_iter_getitem(self):
        trace = make_trace()
        assert len(trace) == 12
        assert trace[0].file_id == 0
        assert sum(1 for _ in trace) == 12

    def test_summary(self):
        trace = make_trace()
        summary = trace.summary()
        assert summary.n_files == 12
        assert 2 <= summary.min_file_chunks <= summary.max_file_chunks <= 6
        assert summary.total_chunks == sum(
            event.n_chunks for event in trace
        )
        assert "12 files" in str(summary)

    def test_roundtrip(self, tmp_path):
        trace = make_trace(bits=10, n_nodes=50, overlay_seed=42)
        path = tmp_path / "trace.ndjson"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert original.file_id == restored.file_id
            assert original.originator == restored.originator
            assert np.array_equal(
                original.chunk_addresses, restored.chunk_addresses
            )

    def test_save_without_provenance_refused(self, tmp_path):
        # A header's provenance is never null on disk.
        path = tmp_path / "trace.ndjson"
        with pytest.raises(WorkloadError, match="no provenance"):
            make_trace().save(path)
        assert not path.exists()

    def test_partial_provenance_refused(self):
        with pytest.raises(WorkloadError, match="'n_nodes'"):
            make_trace(bits=10, overlay_seed=42)


class TestTraceProvenance:
    def test_header_round_trips(self, tmp_path):
        trace = make_trace(bits=10, n_nodes=50, overlay_seed=42)
        path = tmp_path / "trace.ndjson"
        trace.save(path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == HEADER
        assert len(lines) == 1 + len(trace)
        loaded = WorkloadTrace.load(path)
        assert loaded.header == TraceHeader(10, 50, 42)

    @pytest.mark.parametrize("document", [
        [{"file_id": 0, "originator": 3, "chunks": [1, 2, 900]}],
        {"format": "repro-swarm-trace/1", "bits": 10, "n_nodes": 50,
         "overlay_seed": 42,
         "events": [{"file_id": 0, "originator": 3, "chunks": [1]}]},
    ], ids=["bare-list", "single-document"])
    def test_pre_ndjson_layouts_refused(self, tmp_path, document):
        path = tmp_path / "old.json"
        write_lines(path, document)
        with pytest.raises(WorkloadError,
                           match=r"cannot read request trace .*old\.json"):
            WorkloadTrace.load(path)

    def test_pretty_printed_document_refused(self, tmp_path):
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps({**HEADER, "events": []}, indent=2))
        with pytest.raises(WorkloadError, match="first line is not"):
            WorkloadTrace.load(path)

    def test_header_decodes_to_compact_dtype(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        make_trace(bits=10, n_nodes=50, overlay_seed=42).save(path)
        loaded = WorkloadTrace.load(path)
        assert loaded[0].chunk_addresses.dtype == np.uint16
        wide = tmp_path / "wide.ndjson"
        make_trace(bits=20, n_nodes=50, overlay_seed=42).save(wide)
        assert WorkloadTrace.load(wide)[0].chunk_addresses.dtype == np.uint32

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "future.ndjson"
        write_lines(path, {**HEADER, "format": "repro-swarm-trace/99"})
        with pytest.raises(WorkloadError, match="format tag"):
            WorkloadTrace.load(path)

    def test_headerless_dict_rejected(self, tmp_path):
        path = tmp_path / "noheader.ndjson"
        write_lines(path, {"events": []})
        with pytest.raises(WorkloadError, match="format tag"):
            WorkloadTrace.load(path)

    def test_dynamics_trace_file_rejected(self, tmp_path):
        # The sibling dynamics format must fail with a pointer, not
        # decode as zero requests.
        path = tmp_path / "dynamics.json"
        write_lines(path, {"format": "repro-swarm-dynamics/1",
                           "streams": []})
        with pytest.raises(WorkloadError, match="dynamics trace"):
            WorkloadTrace.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        make_trace(bits=10, n_nodes=50, overlay_seed=42).save(path)
        path.write_text(path.read_text()[:-30])
        with pytest.raises(WorkloadError, match="truncated or corrupt"):
            WorkloadTrace.load(path)

    def test_malformed_event_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        write_lines(path, HEADER, {"file_id": 0, "chunks": [1]})
        with pytest.raises(WorkloadError, match="malformed event"):
            WorkloadTrace.load(path)

    @pytest.mark.parametrize("value", [True, 3.7, "3"],
                             ids=["bool", "float", "string"])
    @pytest.mark.parametrize("field", ["chunks", "originator", "file_id"])
    def test_non_int_event_field_rejected(self, tmp_path, field, value):
        # np.asarray(..., uint16) would quietly replay 3.7 as chunk 3
        # and true as chunk 1; every id on the wire must be a JSON int.
        event = {"file_id": 0, "originator": 3, "chunks": [1, 2]}
        event[field] = [1, value] if field == "chunks" else value
        path = tmp_path / "bad.json"
        write_lines(path, HEADER, event)
        reason = field.removesuffix("s")  # "chunk addresses must be ..."
        with pytest.raises(WorkloadError,
                           match=rf"bad\.json: malformed event \({reason}"):
            WorkloadTrace.load(path)

    def test_missing_file_id_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        write_lines(path, HEADER, {"originator": 3, "chunks": [1]})
        with pytest.raises(WorkloadError, match="missing 'file_id'"):
            WorkloadTrace.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read"):
            WorkloadTrace.load(tmp_path / "gone.ndjson")

    @pytest.mark.parametrize("bits", [0, -3, 65, "12"])
    def test_out_of_range_bits_rejected(self, tmp_path, bits):
        path = tmp_path / "badbits.ndjson"
        write_lines(path, {**HEADER, "bits": bits},
                    {"file_id": 0, "originator": 1, "chunks": [2]})
        with pytest.raises(WorkloadError, match="cannot read"):
            WorkloadTrace.load(path)

    @pytest.mark.parametrize("value", [None, True, 12.0, "12"],
                             ids=["null", "bool", "float", "string"])
    @pytest.mark.parametrize("field", ["bits", "n_nodes", "overlay_seed"])
    def test_non_int_header_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "badheader.ndjson"
        write_lines(path, {**HEADER, field: value},
                    {"file_id": 0, "originator": 1, "chunks": [2]})
        with pytest.raises(WorkloadError,
                           match=rf"badheader\.ndjson: header field "
                                 rf"'{field}' must be an integer"):
            WorkloadTrace.load(path)

    @pytest.mark.parametrize("field", ["bits", "n_nodes", "overlay_seed"])
    def test_missing_header_field_rejected(self, tmp_path, field):
        path = tmp_path / "short.ndjson"
        header = dict(HEADER)
        del header[field]
        write_lines(path, header)
        with pytest.raises(WorkloadError,
                           match=f"missing header field '{field}'"):
            WorkloadTrace.load(path)

    def test_empty_chunk_event_rejected_at_load(self, tmp_path):
        # FileDownload enforces >= 1 chunk at construction, which is
        # why TraceWorkload.events needs no empty-event guard: a trace
        # with an empty file cannot even be loaded.
        path = tmp_path / "empty-file.ndjson"
        write_lines(path, HEADER,
                    {"file_id": 0, "originator": 3, "chunks": []})
        with pytest.raises(WorkloadError, match="at least one chunk"):
            WorkloadTrace.load(path)
