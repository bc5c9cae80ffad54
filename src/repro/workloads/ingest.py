"""Import measured gateway request logs as workload traces.

Real gateway logs name clients and content by arbitrary identifiers
(peer IDs, content hashes); a simulation run needs overlay node
addresses and chunk addresses inside the configured space. This
module converts the former into the latter deterministically:

* a client that is already an integer overlay address maps to itself;
  anything else (strings, out-of-population integers) hashes onto the
  overlay population with SHA-256, so the same client always lands on
  the same node;
* a chunk reference that is an in-range integer maps to itself;
  anything else hashes into the address space the same way.

The output is an NDJSON :class:`~repro.workloads.traces.WorkloadTrace`
file — written line-by-line as the log is read, so a day-long log
imports in bounded memory — whose provenance header pins the overlay
the mapping was computed for. ``repro-swarm trace import-requests``
is the CLI wrapper.

Accepted input: NDJSON, one request per line. Each line is an object
with a client field (``client`` or ``originator``) and content field
(``chunks`` — a list — or a scalar ``chunk`` / ``cid``); unknown
fields (timestamps, byte counts) are ignored. Example::

    {"client": "12D3KooWA...", "cid": "bafybeib...", "ts": 1e9}
    {"client": 40163, "chunks": [12, 993, 57120]}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from .._files import open_output
from ..errors import WorkloadError
from .traces import TraceHeader

__all__ = ["RequestImportSummary", "import_requests"]


def stable_hash(value: str) -> int:
    """Deterministic 64-bit hash (SHA-256 prefix) of an identifier.

    Python's ``hash()`` is salted per process; imports must map the
    same client to the same node on every machine, so use a real
    digest.
    """
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RequestImportSummary:
    """What an import did, for CLI output and tests."""

    files: int
    chunks: int
    direct_clients: int
    hashed_clients: int
    direct_chunks: int
    hashed_chunks: int
    skipped_lines: int

    def __str__(self) -> str:
        return (
            f"{self.files} requests / {self.chunks} chunks imported "
            f"(clients: {self.direct_clients} direct, "
            f"{self.hashed_clients} hashed; chunk refs: "
            f"{self.direct_chunks} direct, {self.hashed_chunks} hashed; "
            f"{self.skipped_lines} blank/comment lines skipped)"
        )


def import_requests(lines: Iterable[str] | IO[str],
                    out_path: str | Path, *, overlay,
                    ) -> RequestImportSummary:
    """Convert a gateway request log into an NDJSON workload trace.

    *lines* is any iterable of text lines (an open log file); the
    trace is streamed to *out_path* one event per line. Returns a
    summary of the mapping. Malformed lines raise
    :class:`~repro.errors.WorkloadError` naming the line number.
    """
    addresses = overlay.address_array()
    population = set(int(a) for a in addresses)
    n_nodes = len(addresses)
    space = overlay.space
    files = chunks = 0
    direct_clients = hashed_clients = 0
    direct_chunks = hashed_chunks = 0
    skipped = 0

    def map_client(value) -> int:
        nonlocal direct_clients, hashed_clients
        if (isinstance(value, int) and not isinstance(value, bool)
                and value in population):
            direct_clients += 1
            return value
        hashed_clients += 1
        return int(addresses[stable_hash(str(value)) % n_nodes])

    def map_chunk(value) -> int:
        nonlocal direct_chunks, hashed_chunks
        if (isinstance(value, int) and not isinstance(value, bool)
                and 0 <= value < space.size):
            direct_chunks += 1
            return value
        hashed_chunks += 1
        return stable_hash(str(value)) % space.size

    with open_output(out_path, "request trace") as out:
        header = TraceHeader(space.bits, n_nodes, overlay.config.seed)
        out.write(json.dumps(header.to_json()) + "\n")
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                skipped += 1
                continue
            try:
                item = json.loads(stripped)
            except json.JSONDecodeError as error:
                raise WorkloadError(
                    f"bad request log line {lineno}: not valid JSON "
                    f"({error})"
                ) from None
            if not isinstance(item, dict):
                raise WorkloadError(
                    f"bad request log line {lineno}: expected a JSON "
                    f"object, got {type(item).__name__}"
                )
            client = item.get("client", item.get("originator"))
            if client is None:
                raise WorkloadError(
                    f"bad request log line {lineno}: no 'client' (or "
                    f"'originator') field"
                )
            refs = item.get("chunks")
            if refs is None:
                scalar = item.get("chunk", item.get("cid"))
                refs = None if scalar is None else [scalar]
            if not isinstance(refs, list) or not refs:
                raise WorkloadError(
                    f"bad request log line {lineno}: no content field "
                    f"— need a non-empty 'chunks' list or a scalar "
                    f"'chunk'/'cid'"
                )
            out.write(json.dumps({
                "file_id": files,
                "originator": map_client(client),
                "chunks": [map_chunk(ref) for ref in refs],
            }) + "\n")
            files += 1
            chunks += len(refs)
    if files == 0:
        raise WorkloadError(
            "request log contained no events; nothing to import"
        )
    return RequestImportSummary(
        files=files, chunks=chunks,
        direct_clients=direct_clients, hashed_clients=hashed_clients,
        direct_chunks=direct_chunks, hashed_chunks=hashed_chunks,
        skipped_lines=skipped,
    )
