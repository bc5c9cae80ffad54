"""Unit tests for chunks and manifests (repro.swarm.chunk)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kademlia.address import AddressSpace
from repro.swarm.chunk import (
    CHUNK_SIZE,
    Chunk,
    FileManifest,
    split_content,
)


@pytest.fixture()
def space() -> AddressSpace:
    return AddressSpace(12)


class TestChunk:
    def test_chunk_size_is_4kb(self):
        assert CHUNK_SIZE == 4096

    def test_oversized_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            Chunk(address=1, data=b"x" * (CHUNK_SIZE + 1))

    def test_abstract_chunk_reports_full_size(self):
        assert Chunk(address=1).size == CHUNK_SIZE

    def test_payload_size(self):
        assert Chunk(address=1, data=b"abc").size == 3

    def test_from_data_deterministic(self, space):
        a = Chunk.from_data(b"hello", space)
        b = Chunk.from_data(b"hello", space)
        assert a.address == b.address
        assert a.address in space

    def test_from_data_differs_by_content(self, space):
        assert (
            Chunk.from_data(b"hello", space).address
            != Chunk.from_data(b"world", space).address
        )

    def test_from_data_oversized_rejected(self, space):
        with pytest.raises(ConfigurationError):
            Chunk.from_data(b"x" * (CHUNK_SIZE + 1), space)


class TestFileManifest:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FileManifest(file_id=1, chunk_addresses=())

    def test_len(self):
        manifest = FileManifest(file_id=1, chunk_addresses=(1, 2, 3))
        assert len(manifest) == 3

    def test_chunks_alignment_enforced(self):
        with pytest.raises(ConfigurationError, match="align"):
            FileManifest(
                file_id=1, chunk_addresses=(1, 2),
                chunks=(Chunk(address=1),),
            )


class TestSplitContent:
    def test_roundtrip_addresses(self, space):
        content = bytes(range(256)) * 40  # 10240 bytes -> 3 chunks
        manifest = split_content(7, content, space)
        assert len(manifest) == 3
        rebuilt = b"".join(chunk.data for chunk in manifest.chunks)
        assert rebuilt == content

    def test_addresses_match_chunks(self, space):
        manifest = split_content(7, b"y" * 5000, space)
        for address, chunk in zip(manifest.chunk_addresses, manifest.chunks):
            assert address == chunk.address

    def test_empty_content_rejected(self, space):
        with pytest.raises(ConfigurationError):
            split_content(1, b"", space)
