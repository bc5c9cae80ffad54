"""Chunks and content addressing (paper §III-A).

All content in Swarm is split into fixed-size 4KB chunks addressed on
the same space as nodes, which is what makes "the node closest to the
chunk" meaningful. The paper's simulation abstracts chunk payloads
away and draws chunk addresses uniformly at random (a manifest of bare
addresses); this module also supports real content addressing
(:meth:`Chunk.from_data`, address = truncated SHA-256 of the payload)
so examples can store and verify actual bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..kademlia.address import AddressSpace

__all__ = ["CHUNK_SIZE", "Chunk", "FileManifest", "split_content"]

#: Swarm's fixed chunk payload size in bytes (paper §III-A).
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class Chunk:
    """A content chunk: an overlay address plus an optional payload.

    The paper's experiments only need addresses; payloads are carried
    when examples exercise real store/retrieve round trips.
    """

    address: int
    data: bytes | None = None

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) > CHUNK_SIZE:
            raise ConfigurationError(
                f"chunk payload of {len(self.data)} bytes exceeds the "
                f"{CHUNK_SIZE}-byte chunk size"
            )

    @classmethod
    def from_data(cls, data: bytes, space: AddressSpace) -> "Chunk":
        """Content-address *data*: truncated SHA-256 onto the space.

        Real Swarm uses a 256-bit BMT hash; the simulation's spaces
        are narrower, so the digest is truncated to ``space.bits``.
        """
        if len(data) > CHUNK_SIZE:
            raise ConfigurationError(
                f"chunk payload of {len(data)} bytes exceeds the "
                f"{CHUNK_SIZE}-byte chunk size"
            )
        digest = hashlib.sha256(data).digest()
        address = int.from_bytes(digest, "big") % space.size
        return cls(address=address, data=data)

    @property
    def size(self) -> int:
        """Payload size in bytes (the full 4KB when data is abstract)."""
        return len(self.data) if self.data is not None else CHUNK_SIZE


@dataclass(frozen=True)
class FileManifest:
    """A file as the ordered list of its chunks' addresses.

    Downloading a file means retrieving every chunk in the manifest
    (paper §III-A: "a peer must download all of the file's data chunks
    spread throughout the network").
    """

    file_id: int
    chunk_addresses: tuple[int, ...]
    chunks: tuple[Chunk, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if len(self.chunk_addresses) == 0:
            raise ConfigurationError("a file must have at least one chunk")
        if self.chunks and len(self.chunks) != len(self.chunk_addresses):
            raise ConfigurationError(
                "chunks and chunk_addresses must align when both given"
            )

    def __len__(self) -> int:
        return len(self.chunk_addresses)


def split_content(file_id: int, content: bytes,
                  space: AddressSpace) -> FileManifest:
    """Split real bytes into content-addressed 4KB chunks."""
    if len(content) == 0:
        raise ConfigurationError("cannot split empty content")
    chunks = tuple(
        Chunk.from_data(content[offset:offset + CHUNK_SIZE], space)
        for offset in range(0, len(content), CHUNK_SIZE)
    )
    return FileManifest(
        file_id=file_id,
        chunk_addresses=tuple(chunk.address for chunk in chunks),
        chunks=chunks,
    )
