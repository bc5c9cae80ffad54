"""Tests for the serve request decoder (:class:`RequestStream`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kademlia.address import AddressSpace
from repro.workloads.distributions import UniformFileSize
from repro.workloads.generators import DownloadWorkload
from repro.workloads.streams import RequestStream, parse_request_line

SPACE = AddressSpace(10)
NODES = np.arange(40, dtype=np.uint64)


def make_workload(n_files=20):
    return DownloadWorkload(
        n_files=n_files, file_size=UniformFileSize(3, 9), seed=2,
    )


class TestParseRequestLine:
    def test_chunks_list(self):
        event = parse_request_line(
            '{"originator": 5, "chunks": [1, 2, 3]}'
        )
        assert event.originator == 5
        assert event.file_id == 0
        np.testing.assert_array_equal(event.chunk_addresses, [1, 2, 3])

    def test_scalar_chunk_and_file_id(self):
        event = parse_request_line(
            '{"originator": 5, "chunk": 9, "file_id": 4}'
        )
        assert event.file_id == 4
        np.testing.assert_array_equal(event.chunk_addresses, [9])

    def test_bad_json_names_the_line(self):
        with pytest.raises(WorkloadError, match=r"line 12"):
            parse_request_line("{nope", lineno=12)

    def test_non_object_rejected(self):
        with pytest.raises(WorkloadError, match="object"):
            parse_request_line("[1, 2]")

    def test_missing_fields_rejected(self):
        with pytest.raises(WorkloadError, match="originator"):
            parse_request_line('{"chunks": [1]}')
        with pytest.raises(WorkloadError, match="bad request"):
            parse_request_line('{"originator": 5}')

    @pytest.mark.parametrize("line", [
        '{"originator": 5, "chunks": [1.5]}',
        '{"originator": 5, "chunks": ["12"]}',
        '{"originator": 5, "chunks": [true]}',
        '{"originator": 5, "chunks": [[1, 2]]}',
        '{"originator": 5, "chunks": [null]}',
        '{"originator": 5, "chunks": 7}',
        '{"originator": 5, "chunks": []}',
        '{"originator": 5, "chunk": 2.0}',
        '{"originator": 5, "chunk": [2]}',
        '{"originator": 5, "chunks": [1], "chunk": 1}',
        '{"originator": 643.0, "chunks": [1]}',
        '{"originator": true, "chunks": [1]}',
        '{"originator": "5", "chunks": [1]}',
        '{"originator": 5, "chunks": [1], "file_id": 3.0}',
        '{"originator": 5, "chunks": [1], "file_id": false}',
        '{"originator": 5, "chunks": [-1]}',
        '{"originator": 5, "chunks": [NaN]}',
        '[' * 100_000,
    ])
    def test_strict_wire_types_name_the_line(self, line):
        with pytest.raises(WorkloadError, match=r"\(line 7\)$"):
            parse_request_line(line, bits=10, lineno=7)

    def test_address_must_fit_the_space(self):
        with pytest.raises(WorkloadError, match="10-bit space"):
            parse_request_line('{"originator": 5, "chunks": [1024]}',
                               bits=10)
        event = parse_request_line('{"originator": 5, "chunks": [1023]}',
                                   bits=10)
        assert event.chunk_addresses.dtype == np.uint16


def columns(stream, nodes=NODES, space=SPACE):
    """Concatenated (origins, sizes, targets, linenos) of a stream."""
    batches = list(stream.batches(nodes, space))
    return tuple(
        np.concatenate([getattr(batch, field) for batch in batches])
        for field in ("origins", "sizes", "targets", "linenos")
    )


class TestRequestStream:
    def lines_for(self, events):
        return [
            json.dumps({
                "originator": int(event.originator),
                "chunks": [int(c) for c in event.chunk_addresses],
            }) + "\n"
            for event in events
        ]

    def test_parses_wire_format_exactly(self):
        events = make_workload().materialize(NODES, SPACE)
        stream = RequestStream(self.lines_for(events), max_batch=5)
        origins, sizes, targets, linenos = columns(stream)
        assert len(sizes) == len(events)
        # Line numbers follow wire order; NODES[i] == i, so dense
        # origin indices equal the originator addresses.
        np.testing.assert_array_equal(linenos, np.arange(1, 21))
        np.testing.assert_array_equal(
            NODES[origins], [event.originator for event in events])
        np.testing.assert_array_equal(
            sizes, [event.n_chunks for event in events])
        np.testing.assert_array_equal(targets, np.concatenate(
            [event.chunk_addresses for event in events]))
        assert targets.dtype == np.uint16

    def test_origins_are_dense_indices(self):
        nodes = np.array([900, 40, 512], dtype=np.uint64)
        lines = ['{"originator": 512, "chunks": [1]}\n',
                 '{"originator": 900, "chunk": 2}\n',
                 '{"originator": 40, "chunks": [3], "file_id": 9}\n']
        origins, *_ = columns(RequestStream(lines), nodes=nodes)
        np.testing.assert_array_equal(origins, [2, 0, 1])

    def test_len_is_requests_per_batch(self):
        events = make_workload().materialize(NODES, SPACE)
        stream = RequestStream(self.lines_for(events), max_batch=6)
        batches = list(stream.batches(NODES, SPACE))
        assert [len(batch) for batch in batches] == [6, 6, 6, 2]
        assert all(len(batch) == batch.origins.size
                   == batch.linenos.size for batch in batches)
        assert all(batch.sizes.sum() == batch.targets.size
                   for batch in batches)

    def test_batch_size_does_not_change_columns(self):
        events = make_workload().materialize(NODES, SPACE)
        lines = self.lines_for(events)
        lines.insert(3, "\n")
        one, many = (columns(RequestStream(lines, max_batch=size))
                     for size in (1, 256))
        for a, b in zip(one, many):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_blank_lines_skipped_but_numbering_kept(self):
        lines = ['{"originator": 3, "chunks": [1]}\n', "\n",
                 '{"originator": 4, "chunks": [2]}\n']
        *_, linenos = columns(RequestStream(lines))
        np.testing.assert_array_equal(linenos, [1, 3])

    def test_foreign_originator_names_the_line(self):
        lines = ['{"originator": 3, "chunks": [1]}\n',
                 '{"originator": 9999, "chunks": [2]}\n']
        with pytest.raises(WorkloadError, match=r"line 2"):
            columns(RequestStream(lines))

    def test_out_of_space_chunk_names_the_line(self):
        # 5000 fits the chunk dtype but not the 10-bit (1024) space.
        lines = ['{"originator": 3, "chunks": [5000]}\n']
        with pytest.raises(WorkloadError, match=r"space \(line 1\)"):
            columns(RequestStream(lines))

    def test_bad_line_refuses_its_whole_batch(self):
        lines = ['{"originator": 3, "chunks": [1]}\n'] * 5
        lines[3] = '{"originator": 3, "chunks": [1.5]}\n'
        batches = RequestStream(lines, max_batch=2).batches(NODES, SPACE)
        assert len(next(batches)) == 2
        with pytest.raises(WorkloadError, match=r"line 4"):
            next(batches)

    def test_rejects_bad_max_batch(self):
        with pytest.raises(WorkloadError, match="max_batch"):
            RequestStream([], max_batch=-1)
