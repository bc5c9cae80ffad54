"""Shared-memory publication of next-hop tables.

The sweep executor's parent process builds (or reuses) each unique
topology's :class:`~repro.backends.fast.NextHopTable` once, copies its
two dense arrays — the terminal-coded ``[target, node]`` matrix and
the per-address storer vector, both already in the compact entry
dtype —
into :class:`multiprocessing.shared_memory.SharedMemory` segments, and
ships a small plain-data :class:`SharedTableHandle` to every worker.
Workers attach the segments **read-only** and wrap them in a
:class:`~repro.backends.fast.NextHopTable` via
:meth:`~repro.backends.fast.NextHopTable.from_arrays` — zero copies,
zero rebuilds, and (on Linux) one physical copy of the ~131 MB
paper-scale table shared by every worker.

The topology rides along in a third segment: the overlay's
:meth:`~repro.kademlia.overlay.Overlay.to_dict` form as JSON bytes.
A worker decodes it once (:func:`attach_overlay`: 23–46 ms for a
300-node topology, fingerprint included, against ~0.2 s for
``Overlay.build``), recomputes the fingerprint from the decoded
structure and refuses a mismatch, so no worker rebuilds an overlay
the parent already built.

Cleanup is refcounted in the publishing process: each sweep run
acquires the handles it needs from the :class:`SharedTableRegistry`
and releases them when done; a segment is closed and unlinked when its
last acquirer releases it. Workers deliberately *detach without
unlinking* (the publisher owns the segment), which requires opting
out of :mod:`multiprocessing.resource_tracker` bookkeeping — Python
3.13 has ``track=False`` for exactly this, and :func:`_open_segment`
falls back to unregistering manually on older interpreters.
"""

from __future__ import annotations

import json
import os
import secrets
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..backends.fast import NextHopTable
    from ..kademlia.overlay import Overlay

__all__ = [
    "SharedArraySpec",
    "SharedTableHandle",
    "SharedEpochTablesHandle",
    "SharedTableRegistry",
    "attach_table",
    "attach_overlay",
    "attach_epoch_tables",
    "pinned_tables",
    "shared_table_registry",
    "sweep_stale_segments",
]

#: Prefix of every segment this registry creates. Embedding the
#: publisher's pid makes leaked segments attributable: a segment named
#: ``repro_<pid>_...`` whose pid no longer exists can only be garbage
#: left by a killed publisher, which is exactly what
#: :func:`sweep_stale_segments` reclaims at startup.
SEGMENT_PREFIX = "repro"

#: Where POSIX shared memory appears as files (Linux). On platforms
#: without it the stale sweep degrades to a silent no-op.
_SHM_DIR = Path("/dev/shm")


def _segment_name() -> str:
    """A fresh ``repro_<pid>_<hex>`` segment name for this process."""
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    """Whether *pid* currently names a process we may not disturb."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (another user's), or unknowable: keep it
    return True


def sweep_stale_segments() -> list[str]:
    """Unlink ``repro_<pid>_*`` segments whose publisher is dead.

    A publisher killed with SIGKILL never reaches its refcounted
    ``release`` path, leaving its segments pinned in ``/dev/shm``
    forever (shared memory survives process death by design). Every
    fresh publisher sweeps those on startup: a segment carrying a pid
    that no longer exists is unowned by construction — live publishers
    always outlive their segments' names. Returns the names removed.
    """
    removed: list[str] = []
    try:
        entries = list(_SHM_DIR.iterdir())
    except OSError:
        return removed
    for entry in entries:
        parts = entry.name.split("_", 2)
        if len(parts) != 3 or parts[0] != SEGMENT_PREFIX:
            continue
        try:
            pid = int(parts[1])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            segment = _open_segment(entry.name)
        except (OSError, ValueError):  # pragma: no cover - raced away
            continue
        try:
            segment.unlink()
            segment.close()
        except OSError:  # pragma: no cover - raced away
            continue
        removed.append(entry.name)
    if removed:
        warnings.warn(
            f"reclaimed {len(removed)} stale shared-memory segment(s) "
            f"left by dead publisher(s): {sorted(removed)}",
            RuntimeWarning,
        )
    return removed


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything needed to re-map one array from shared memory."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def to_payload(self) -> dict:
        """Plain-data form safe to pickle into spawn workers."""
        return {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SharedArraySpec":
        """Inverse of :meth:`to_payload`."""
        return cls(
            name=str(payload["name"]),
            shape=tuple(int(v) for v in payload["shape"]),
            dtype=str(payload["dtype"]),
        )


@dataclass(frozen=True)
class SharedTableHandle:
    """A published table: fingerprint, its two array segments, and the
    segment holding its overlay's JSON bytes."""

    fingerprint: str
    coded: SharedArraySpec
    storer: SharedArraySpec
    overlay: SharedArraySpec

    def to_payload(self) -> dict:
        """Plain-data form safe to pickle into spawn workers."""
        return {
            "fingerprint": self.fingerprint,
            "coded": self.coded.to_payload(),
            "storer": self.storer.to_payload(),
            "overlay": self.overlay.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SharedTableHandle":
        """Inverse of :meth:`to_payload`."""
        return cls(
            fingerprint=str(payload["fingerprint"]),
            coded=SharedArraySpec.from_payload(payload["coded"]),
            storer=SharedArraySpec.from_payload(payload["storer"]),
            overlay=SharedArraySpec.from_payload(payload["overlay"]),
        )


@dataclass(frozen=True)
class SharedEpochTablesHandle:
    """One scenario schedule's published epoch artifacts.

    The publishing sweep parent replays the scenario schedule once
    (:func:`~repro.scenarios.plan.precompute_epoch_tables`) and packs
    the results into at most three segments: every epoch storer table
    stacked into one ``(k, space)`` matrix, and every sparse
    :class:`~repro.kademlia.table.CodedPatch` concatenated into one
    indices and one prior array, sliced back apart by ``patch_offsets``
    on attach. ``storer_keys``/``patch_keys`` carry the chained
    fingerprints the attaching worker installs the artifacts under in
    its :class:`~repro.perf.table_cache.EpochTableCache` — which is
    what turns per-worker epoch patching into once-per-machine.
    """

    key: str
    n_nodes: int
    storer_keys: tuple[str, ...]
    storers: SharedArraySpec | None
    patch_keys: tuple[str, ...]
    patch_offsets: tuple[int, ...]
    patch_indices: SharedArraySpec | None
    patch_prior: SharedArraySpec | None

    def to_payload(self) -> dict:
        """Plain-data form safe to pickle into spawn workers.

        Carries ``kind`` so :func:`repro.sweeps.worker.
        register_table_handles` can dispatch it alongside the dense
        :class:`SharedTableHandle` payloads in one mapping.
        """
        return {
            "kind": "epoch-tables",
            "key": self.key,
            "n_nodes": self.n_nodes,
            "storer_keys": list(self.storer_keys),
            "storers": (None if self.storers is None
                        else self.storers.to_payload()),
            "patch_keys": list(self.patch_keys),
            "patch_offsets": list(self.patch_offsets),
            "patch_indices": (None if self.patch_indices is None
                              else self.patch_indices.to_payload()),
            "patch_prior": (None if self.patch_prior is None
                            else self.patch_prior.to_payload()),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SharedEpochTablesHandle":
        """Inverse of :meth:`to_payload`."""

        def spec(key: str) -> SharedArraySpec | None:
            value = payload[key]
            return (None if value is None
                    else SharedArraySpec.from_payload(value))

        return cls(
            key=str(payload["key"]),
            n_nodes=int(payload["n_nodes"]),
            storer_keys=tuple(str(k) for k in payload["storer_keys"]),
            storers=spec("storers"),
            patch_keys=tuple(str(k) for k in payload["patch_keys"]),
            patch_offsets=tuple(int(v) for v in payload["patch_offsets"]),
            patch_indices=spec("patch_indices"),
            patch_prior=spec("patch_prior"),
        )


def _create_segment(array: np.ndarray
                    ) -> tuple[shared_memory.SharedMemory, SharedArraySpec]:
    """Copy *array* into a fresh shared-memory segment.

    Segments are named ``repro_<pid>_<hex>`` (see
    :data:`SEGMENT_PREFIX`) so that a later publisher can attribute —
    and reclaim — anything a killed publisher left behind.
    """
    array = np.ascontiguousarray(array)
    while True:
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=array.nbytes, name=_segment_name()
            )
            break
        except FileExistsError:  # pragma: no cover - 32-bit collision
            continue
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[:] = array
    spec = SharedArraySpec(
        name=segment.name, shape=tuple(array.shape), dtype=array.dtype.str
    )
    return segment, spec


def _open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    The publisher owns unlinking. On Python 3.13+ ``track=False``
    keeps the attach out of :mod:`multiprocessing.resource_tracker`
    entirely. Older interpreters register every attach — but our
    attachers are always spawn children of the publisher and therefore
    *share its tracker process*, where registration is a per-name set:
    the duplicate add is a no-op, and the publisher's own ``unlink``
    clears the single entry. Manually unregistering here would instead
    delete the publisher's registration out from under it (observed as
    ``KeyError`` noise in the tracker), so the fallback deliberately
    leaves the bookkeeping alone.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _attach_array(spec: SharedArraySpec
                  ) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Map one published array read-only."""
    segment = _open_segment(spec.name)
    array = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    array.flags.writeable = False
    return segment, array


def attach_table(handle: SharedTableHandle,
                 overlay: "Overlay") -> "NextHopTable":
    """Wrap a published table for *overlay* (read-only, zero-copy).

    *overlay* must be the topology the table was built from; the
    fingerprint is checked so a stale handle can never silently route
    a different network.
    """
    if overlay.fingerprint() != handle.fingerprint:
        raise ConfigurationError(
            f"shared table {handle.fingerprint[:12]}... does not match "
            f"overlay {overlay.fingerprint()[:12]}...; refusing to attach"
        )
    from ..backends.fast import NextHopTable

    segments = []
    try:
        coded_segment, coded = _attach_array(handle.coded)
        segments.append(coded_segment)
        storer_segment, storer = _attach_array(handle.storer)
        segments.append(storer_segment)
        return NextHopTable.from_arrays(
            overlay,
            coded=coded,
            storer=storer,
            segments=tuple(segments),
        )
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - close best effort
                pass
        raise


def _encode_overlay(overlay: "Overlay") -> np.ndarray:
    """*overlay*'s :meth:`~repro.kademlia.overlay.Overlay.to_dict` as
    UTF-8 JSON bytes (a ``uint8`` array, ready for a segment)."""
    text = json.dumps(overlay.to_dict(), separators=(",", ":"))
    return np.frombuffer(text.encode(), dtype=np.uint8)


def attach_overlay(handle: SharedTableHandle) -> "Overlay":
    """Decode the overlay published with *handle*'s table.

    The bytes are copied out and the segment closed at once, then
    decoded with the strict :meth:`~repro.kademlia.overlay.Overlay.
    from_dict`. The fingerprint is recomputed from the decoded
    structure — no digest crosses the process boundary — and a
    mismatch is refused exactly as :func:`attach_table` refuses one.
    """
    from ..errors import OverlayError
    from ..kademlia.overlay import Overlay

    segment = _open_segment(handle.overlay.name)
    try:
        with segment.buf[:handle.overlay.shape[0]] as view:
            raw = bytes(view)
    finally:
        segment.close()
    try:
        overlay = Overlay.from_dict(json.loads(raw))
    except (ValueError, OverlayError) as error:
        raise ConfigurationError(
            f"shared overlay for table {handle.fingerprint[:12]}... does "
            f"not decode: {error}"
        ) from None
    if overlay.fingerprint() != handle.fingerprint:
        raise ConfigurationError(
            f"shared table {handle.fingerprint[:12]}... does not match "
            f"its published overlay {overlay.fingerprint()[:12]}...; "
            f"refusing to attach"
        )
    return overlay


def attach_epoch_tables(handle: SharedEpochTablesHandle
                        ) -> tuple[dict, tuple]:
    """Map one published epoch-table block read-only (zero-copy).

    Returns ``(artifacts, segments)``: *artifacts* maps each chained
    fingerprint to its storer-table row view or reconstructed
    :class:`~repro.kademlia.table.CodedPatch` (views into the shared
    buffers), and *segments* must be kept alive as long as any of the
    views are — the attaching cache adopts them.
    """
    from ..kademlia.table import CodedPatch

    artifacts: dict = {}
    segments: list[shared_memory.SharedMemory] = []
    try:
        if handle.storers is not None:
            segment, stacked = _attach_array(handle.storers)
            segments.append(segment)
            for index, key in enumerate(handle.storer_keys):
                artifacts[key] = stacked[index]
        if handle.patch_indices is not None:
            index_segment, indices = _attach_array(handle.patch_indices)
            segments.append(index_segment)
            prior_segment, prior = _attach_array(handle.patch_prior)
            segments.append(prior_segment)
            offsets = handle.patch_offsets
            for index, key in enumerate(handle.patch_keys):
                lo, hi = offsets[index], offsets[index + 1]
                artifacts[key] = CodedPatch(
                    indices[lo:hi], prior[lo:hi], handle.n_nodes
                )
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - close best effort
                pass
        raise
    return artifacts, tuple(segments)


class SharedTableRegistry:
    """Publisher-side refcounted registry of shared table segments.

    ``acquire`` publishes a table (or bumps the refcount of an already
    published one) and returns its handle; ``release`` drops one
    reference and unlinks the segments when the last holder lets go.
    Overlapping sweeps in one process therefore share one published
    copy per topology, and nothing leaks into ``/dev/shm`` after the
    last sweep finishes.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict] = {}

    def acquire(self, table: "NextHopTable") -> SharedTableHandle:
        """Publish *table* and its overlay (idempotent); take a reference."""
        fingerprint = table.overlay.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is None:
            segments = []
            try:
                coded_segment, coded_spec = _create_segment(
                    table.coded_transposed
                )
                segments.append(coded_segment)
                storer_segment, storer_spec = _create_segment(table.storer)
                segments.append(storer_segment)
                overlay_segment, overlay_spec = _create_segment(
                    _encode_overlay(table.overlay)
                )
                segments.append(overlay_segment)
            except BaseException:
                for segment in segments:
                    try:
                        segment.close()
                        segment.unlink()
                    except OSError:  # pragma: no cover
                        pass
                raise
            entry = {
                "handle": SharedTableHandle(
                    fingerprint=fingerprint,
                    coded=coded_spec,
                    storer=storer_spec,
                    overlay=overlay_spec,
                ),
                "segments": tuple(segments),
                "references": 0,
            }
            self._entries[fingerprint] = entry
        entry["references"] += 1
        return entry["handle"]

    def acquire_epochs(self, key: str, storer_tables: Mapping,
                       patches: Mapping, n_nodes: int
                       ) -> SharedEpochTablesHandle:
        """Publish one schedule's epoch artifacts (idempotent by *key*).

        *storer_tables* maps chained fingerprints to per-address storer
        arrays (all one shape/dtype), *patches* maps ``"coded:"`` keys
        to :class:`~repro.kademlia.table.CodedPatch` objects. Entries
        are packed into one stacked segment plus one concatenated
        indices/prior pair, refcounted under *key* exactly like dense
        tables (release with :meth:`release`).
        """
        entry = self._entries.get(key)
        if entry is None:
            segments: list[shared_memory.SharedMemory] = []
            storer_keys = tuple(storer_tables)
            patch_keys = tuple(patches)
            try:
                storer_spec = None
                if storer_keys:
                    segment, storer_spec = _create_segment(np.stack(
                        [storer_tables[k] for k in storer_keys]
                    ))
                    segments.append(segment)
                index_spec = prior_spec = None
                offsets = [0]
                if patch_keys:
                    for patch in patches.values():
                        offsets.append(offsets[-1] + len(patch))
                    segment, index_spec = _create_segment(np.concatenate(
                        [patches[k].indices for k in patch_keys]
                    ))
                    segments.append(segment)
                    segment, prior_spec = _create_segment(np.concatenate(
                        [patches[k].prior for k in patch_keys]
                    ))
                    segments.append(segment)
            except BaseException:
                for segment in segments:
                    try:
                        segment.close()
                        segment.unlink()
                    except OSError:  # pragma: no cover
                        pass
                raise
            entry = {
                "handle": SharedEpochTablesHandle(
                    key=key,
                    n_nodes=int(n_nodes),
                    storer_keys=storer_keys,
                    storers=storer_spec,
                    patch_keys=patch_keys,
                    patch_offsets=tuple(offsets),
                    patch_indices=index_spec,
                    patch_prior=prior_spec,
                ),
                "segments": tuple(segments),
                "references": 0,
            }
            self._entries[key] = entry
        entry["references"] += 1
        return entry["handle"]

    def release(self, fingerprint: str) -> None:
        """Drop one reference; unlink the segments on the last one."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return
        entry["references"] -= 1
        if entry["references"] <= 0:
            del self._entries[fingerprint]
            for segment in entry["segments"]:
                try:
                    segment.close()
                    segment.unlink()
                except OSError:  # pragma: no cover - cleanup best effort
                    pass

    def references(self, fingerprint: str) -> int:
        """Current reference count for a published topology (0 if none)."""
        entry = self._entries.get(fingerprint)
        return 0 if entry is None else int(entry["references"])

    def __len__(self) -> int:
        return len(self._entries)


@contextmanager
def pinned_tables(base, points):
    """Pin every unique topology of a sweep for one host session.

    A distributed ``sweep-work`` host runs many small lease batches
    through a fresh :class:`~repro.sweeps.executors.ProcessExecutor`
    call each; per-batch publication would create and unlink the
    shared segments over and over (builds are already amortized by the
    in-process table cache, but the segment copies are not). Holding a
    session-level reference here turns every per-batch
    ``acquire``/``release`` pair into pure refcount traffic on
    segments that live for the whole host session — and, as a side
    effect, builds every topology the spec can lease *eagerly*, so a
    host pays its one build per topology up front instead of on the
    first unlucky batch.

    Yields the pinned fingerprints. Degrades to a no-op (with a
    warning) where shared memory is unavailable, exactly like the
    executor's own publication path.
    """
    from ..backends.fast import cached_overlay
    from ..sweeps.executors import table_topologies
    from .table_cache import global_table_cache

    registry = shared_table_registry()
    pinned: list[str] = []
    try:
        try:
            for config in table_topologies(base, points):
                table = global_table_cache().get(cached_overlay(config))
                pinned.append(registry.acquire(table).fingerprint)
        except (ImportError, OSError) as error:
            warnings.warn(
                f"shared-memory table pinning unavailable ({error}); "
                f"each lease batch will republish its tables",
                RuntimeWarning,
            )
        yield tuple(pinned)
    finally:
        for fingerprint in pinned:
            try:
                registry.release(fingerprint)
            except Exception as error:  # pragma: no cover - best effort
                warnings.warn(
                    f"failed to release pinned table segment "
                    f"{fingerprint!r}: {error}",
                    RuntimeWarning,
                )


_GLOBAL_REGISTRY: SharedTableRegistry | None = None


def shared_table_registry() -> SharedTableRegistry:
    """The process-wide publisher registry used by sweep executors.

    The first call in a process also sweeps ``/dev/shm`` for segments
    leaked by dead publishers (:func:`sweep_stale_segments`), so a
    previously SIGKILLed sweep never permanently pins memory.
    """
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        sweep_stale_segments()
        _GLOBAL_REGISTRY = SharedTableRegistry()
    return _GLOBAL_REGISTRY
