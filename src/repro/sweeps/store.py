"""Deterministic JSON persistence for sweep runs.

A :class:`SweepStore` file records the full :class:`SweepSpec`, run
provenance (git commit, library versions, the derived replica seed
table), and one scalar-metrics record per completed point, keyed by
the point's stable ``point_id``. The layout is deliberately
deterministic — sorted keys, no timestamps, no timings — so that:

* re-running the same spec serially or with ``--jobs N`` produces a
  **byte-identical** file (the acceptance check for parallel
  correctness), and
* two sweeps at different configurations ``diff`` cleanly.

Stores are resumable: reopening an existing file with the same spec
skips completed points, while a different spec is refused rather than
silently mixed (pass ``resume=False`` to overwrite).

Durability: :meth:`SweepStore.save` writes a temp file, fsyncs it
*and* the parent directory, then renames — a SIGKILL or power loss at
any instant leaves either the old complete file or the new complete
file, never a torn one. Points quarantined after exhausting their
retry budget live in a ``failures`` section (sorted, no timestamps;
omitted when empty so healthy stores stay byte-identical with
pre-fault-tolerance ones). Should a file still end up truncated or
corrupt (filesystem damage, a partial copy), :meth:`SweepStore.
salvage` recovers the spec and every parseable point record instead
of refusing the whole file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import warnings
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, StoreMergeError
from .spec import SweepSpec

__all__ = ["SweepStore", "git_provenance", "merge_provenance",
           "render_document"]

FORMAT = "repro-swarm-sweep/1"


def _resumable(stored: SweepSpec, current: SweepSpec) -> bool:
    """Whether a store built for *stored* may serve *current*.

    Identical specs resume, and so does the same spec with a *raised*
    seed count — replica seeds are prefix-stable, so the recorded
    points are exactly the first replicas of the bigger sweep. A
    lowered count is refused: it would leave orphaned points in the
    store and break its byte-determinism.
    """
    if stored == current:
        return True
    return (current.seeds >= stored.seeds
            and dataclasses.replace(stored, seeds=current.seeds) == current)


def git_provenance(repo_dir: Path | None = None) -> dict:
    """Best-effort git commit/dirty state of the code that ran.

    Dirtiness considers tracked files only: result stores and other
    run artifacts written into the repository must not make two
    otherwise-identical sweeps disagree about provenance.
    """
    cwd = Path(repo_dir) if repo_dir is not None else Path(__file__).parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip())
        return {"git_commit": commit, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (the rename) to stable storage."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dir unsupported
        pass
    finally:
        os.close(fd)


class SweepStore:
    """Spec + per-point metric records, persisted as diffable JSON."""

    def __init__(self, path: Path, spec: SweepSpec,
                 points: dict[str, dict] | None = None,
                 provenance: dict | None = None,
                 failures: dict[str, dict] | None = None) -> None:
        self.path = Path(path)
        self.spec = spec
        self.points: dict[str, dict] = dict(points or {})
        self.failures: dict[str, dict] = dict(failures or {})
        self._provenance = provenance
        # Encoded records from the last save (see render_document).
        self._fragments: dict[tuple[str, str], tuple[dict, str]] = {}

    # ------------------------------------------------------------------
    # Lifecycle

    @classmethod
    def open(cls, path: Path, spec: SweepSpec, *,
             resume: bool = True, salvage: bool = False) -> "SweepStore":
        """Open (resuming) or create the store for *spec* at *path*.

        An existing file is resumed only when its spec matches
        exactly; a mismatch raises so results from different sweeps
        never mix. With ``resume=False`` an existing file is replaced.
        A stale ``.tmp`` sibling left by a previous run killed between
        write and rename is removed (its contents are by definition
        incomplete — the rename that would have blessed them never
        happened). With ``salvage=True`` a corrupt or truncated file
        is recovered via :meth:`salvage` — every parseable point
        record kept, the rest re-run — instead of refused.
        """
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        if tmp.exists():
            warnings.warn(
                f"removing stale sweep store temp file {tmp} (a "
                f"previous run was killed mid-save; the renamed store "
                f"file is the only blessed copy)",
                RuntimeWarning,
            )
            tmp.unlink(missing_ok=True)
        if path.exists() and resume:
            try:
                loaded = cls.load(path)
            except ConfigurationError:
                if not salvage:
                    raise
                loaded, notes = cls.salvage(path, spec=spec)
                for note in notes:
                    warnings.warn(f"salvaged {path}: {note}",
                                  RuntimeWarning)
            if not _resumable(loaded.spec, spec):
                raise ConfigurationError(
                    f"sweep store {path} holds a different spec; delete "
                    f"it or pass resume=False to overwrite"
                )
            # A raised seed count is a valid extension: replica seeds
            # are prefix-stable (see repro.sweeps.spec.replica_seed),
            # so every recorded point stays valid under the new spec.
            loaded.spec = spec
            return loaded
        return cls(path, spec)

    @classmethod
    def load(cls, path: Path) -> "SweepStore":
        """Read a store file back (inverse of :meth:`save`)."""
        path = Path(path)
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read sweep store {path}: {error} (if the file "
                f"is truncated or corrupt, SweepStore.salvage / "
                f"repro-swarm sweep --salvage-store can recover the "
                f"parseable records)"
            ) from None
        if document.get("format") != FORMAT:
            raise ConfigurationError(
                f"{path} is not a {FORMAT} sweep store"
            )
        try:
            spec = SweepSpec.from_json(document["spec"])
            provenance = {
                key: value
                for key, value in document.get("provenance", {}).items()
                if key != "seed_table"
            }
            return cls(
                path,
                spec,
                points=document.get("points", {}),
                # Keep the provenance the points were actually computed
                # under; a resume in a newer environment must not
                # rewrite the recorded origin of old results.
                provenance=provenance or None,
                failures=document.get("failures", {}),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ConfigurationError(
                f"sweep store {path} is malformed: {error!r}"
            ) from None

    # ------------------------------------------------------------------
    # Salvage

    @classmethod
    def salvage(cls, path: Path,
                spec: SweepSpec | None = None
                ) -> tuple["SweepStore", list[str]]:
        """Recover what a truncated/corrupt store file still holds.

        Scans the text for the ``spec``, ``points``, ``failures`` and
        ``provenance`` sections and decodes each record independently
        (:meth:`json.JSONDecoder.raw_decode`), stopping a section at
        the first undecodable byte — so every record written before
        the corruption survives. Records whose ``point_id`` does not
        belong to the recovered (or provided fallback) spec are
        dropped rather than resurrected into the wrong sweep.

        Returns the salvaged store plus human-readable notes on what
        was recovered and what was lost. Raises
        :class:`~repro.errors.ConfigurationError` when neither the
        file nor *spec* yields a usable spec — without one, the
        records cannot be attributed to any sweep.
        """
        path = Path(path)
        try:
            text = path.read_text(errors="replace")
        except OSError as error:
            raise ConfigurationError(
                f"cannot read sweep store {path}: {error}"
            ) from None
        try:
            store = cls.load(path)
            return store, ["store parsed cleanly; nothing to salvage"]
        except ConfigurationError:
            pass

        notes: list[str] = []
        spec_payload = _salvage_object(text, "spec")
        salvaged_spec: SweepSpec | None = None
        if spec_payload is not None:
            try:
                salvaged_spec = SweepSpec.from_json(spec_payload)
            except Exception as error:
                notes.append(f"embedded spec unusable ({error})")
        if salvaged_spec is None:
            if spec is None:
                raise ConfigurationError(
                    f"cannot salvage {path}: the spec section is "
                    f"missing or corrupt and no fallback spec was "
                    f"given"
                )
            salvaged_spec = spec
            notes.append(
                "spec section unrecoverable; trusting the caller's "
                "spec for record validation"
            )
        valid_ids = {point.point_id
                     for point in salvaged_spec.points()}

        def keep(section: str, wants_metrics: bool) -> dict[str, dict]:
            records, clean = _salvage_mapping(text, section)
            kept: dict[str, dict] = {}
            dropped = 0
            for point_id, record in records.items():
                if point_id not in valid_ids or not isinstance(
                    record, dict
                ) or (wants_metrics
                      and not isinstance(record.get("metrics"), dict)):
                    dropped += 1
                    continue
                kept[point_id] = record
            if kept or dropped or not clean:
                notes.append(
                    f"{section}: recovered {len(kept)} record(s)"
                    + (f", dropped {dropped} unusable" if dropped else "")
                    + ("" if clean else "; section truncated — any "
                       "later records are lost and will be re-run")
                )
            return kept

        points = keep("points", wants_metrics=True)
        failures = keep("failures", wants_metrics=False)
        provenance = _salvage_object(text, "provenance")
        if provenance is not None:
            provenance = {key: value for key, value in provenance.items()
                          if key != "seed_table"} or None
        if provenance is None:
            notes.append(
                "provenance unrecoverable; the next save records the "
                "current environment"
            )
        return cls(path, salvaged_spec, points=points,
                   provenance=provenance, failures=failures), notes

    # ------------------------------------------------------------------
    # Merging (distributed shards -> one store)

    @classmethod
    def merge(cls, shards: Sequence["SweepStore"],
              path: Path | None = None) -> "SweepStore":
        """Merge distributed shard stores into one store, purely.

        The distributed executor shards a sweep's points across hosts;
        each host writes an ordinary :class:`SweepStore` holding the
        full spec and the points it executed. Because every section is
        deterministic sorted JSON, merging is a pure function of the
        shard contents — and when the shards partition a sweep, the
        merged store is **byte-identical** to a serial run of the same
        spec (the distributed acceptance oracle).

        Rules, all commutative and associative:

        * every shard must hold *exactly* the same spec — a mismatch
          raises :class:`~repro.errors.StoreMergeError`, results from
          different sweeps never mix;
        * ``points`` are unioned; two shards recording the same point
          must agree byte-for-byte (they do, by determinism — a
          disagreement means the shards ran different code and is
          refused);
        * ``failures`` are unioned with **later-attempt-wins**: a
          success anywhere supersedes any failure record (the success
          *is* the later attempt), and between failure records the
          higher ``attempts`` count — the one closer to the terminal
          quarantine — survives;
        * provenance is collapsed when the shards agree (the common
          case: one checkout fanned out over hosts) and otherwise
          recorded per shard (see :func:`merge_provenance`).

        *path* names the merged store's save target (defaults to the
        first shard's — callers merging in memory can ignore it).
        """
        if not shards:
            raise StoreMergeError("no shard stores to merge")
        spec = shards[0].spec
        for shard in shards[1:]:
            if shard.spec != spec:
                raise StoreMergeError(
                    f"shard {shard.path} holds a different spec than "
                    f"{shards[0].path}; shards of one sweep share the "
                    f"spec exactly (byte-identity depends on it)"
                )
        points: dict[str, dict] = {}
        for shard in shards:
            for point_id, record in shard.points.items():
                known = points.get(point_id)
                if known is not None and known != record:
                    raise StoreMergeError(
                        f"shards disagree on point {point_id!r}: sweep "
                        f"points are deterministic, so conflicting "
                        f"success records mean the shards ran "
                        f"different code or configs"
                    )
                points[point_id] = record
        failures: dict[str, dict] = {}
        for shard in shards:
            for point_id, record in shard.failures.items():
                if point_id in points:
                    # A success in any shard is the later attempt.
                    continue
                known = failures.get(point_id)
                if known is None or int(record.get("attempts", 0)) > int(
                    known.get("attempts", 0)
                ):
                    failures[point_id] = record
                elif (int(record.get("attempts", 0))
                      == int(known.get("attempts", 0)) and known != record):
                    raise StoreMergeError(
                        f"shards hold conflicting failure records for "
                        f"point {point_id!r} at the same attempt count "
                        f"({record.get('attempts')}); cannot pick a "
                        f"winner deterministically"
                    )
        provenance = merge_provenance(
            [shard._provenance for shard in shards]
        )
        return cls(
            path if path is not None else shards[0].path,
            spec, points=points, provenance=provenance,
            failures=failures,
        )

    def save(self) -> None:
        """Write the store atomically *and durably*.

        Temp file + fsync + rename + directory fsync: after save()
        returns, the record survives a crash or power loss at any
        point — and a crash *during* save leaves the previous blessed
        file untouched (the stale ``.tmp`` is swept by :meth:`open`).
        """
        text = render_document(self.to_json(), self._fragments)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w") as handle:
            handle.write(text + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self.path)
        _fsync_directory(self.path.parent)

    def to_json(self) -> dict:
        """The full document (deterministic; no timestamps/timings).

        ``failures`` is omitted when empty, so stores from healthy
        runs — and from faulted runs whose every failure was recovered
        within the retry budget — stay byte-identical with stores
        written before the section existed.
        """
        if self._provenance is None:
            # Computed once per store: incremental per-point saves
            # must not shell out to git for every completed point.
            self._provenance = {
                **git_provenance(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            }
        document = {
            "format": FORMAT,
            "spec": self.spec.to_json(),
            "provenance": {
                **self._provenance,
                # Always derived from the *current* spec: prefix-stable
                # under a raised seed count, byte-stable otherwise.
                "seed_table": {
                    str(replica): seed
                    for replica, seed in
                    enumerate(self.spec.workload_seeds())
                },
            },
            "points": self.points,
        }
        if self.failures:
            document["failures"] = self.failures
        return document

    # ------------------------------------------------------------------
    # Records

    def completed_ids(self) -> set[str]:
        """Point ids already recorded (skipped on resume).

        Quarantined failures deliberately do not count: a resumed
        sweep re-runs them with a fresh retry budget.
        """
        return set(self.points)

    def add(self, record: Mapping) -> None:
        """Record one completed point (keyed by its ``point_id``)."""
        record = dict(record)
        point_id = record.pop("point_id")
        self.points[point_id] = record
        # A success supersedes any quarantine left by an earlier run.
        self.failures.pop(point_id, None)

    def add_failure(self, record: Mapping) -> None:
        """Quarantine one exhausted point (keyed by its ``point_id``)."""
        record = dict(record)
        point_id = record.pop("point_id")
        self.failures[point_id] = record

    def __len__(self) -> int:
        return len(self.points)


def render_document(document: Mapping,
                    fragments: dict[tuple[str, str], tuple[dict, str]]
                    ) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)``, built per record.

    ``indent`` forces the pure-Python encoder, so re-encoding every
    record on every per-point save costs O(points^2). Each record of
    the ``points`` and ``failures`` sections is encoded once instead:
    *fragments* maps ``(section, point_id)`` to ``(record, text)``, and
    a text is reused while that very record object is stored (records
    are replaced, never mutated in place). On return *fragments* holds
    exactly the records of *document*.
    """
    fresh = {}
    parts = []
    for key in sorted(document):
        value = document[key]
        if key in ("points", "failures") and value:
            entries = []
            for point_id in sorted(value):
                record = value[point_id]
                cached = fragments.get((key, point_id))
                if cached is None or cached[0] is not record:
                    cached = (record, json.dumps(
                        record, indent=2, sort_keys=True
                    ).replace("\n", "\n    "))
                fresh[key, point_id] = cached
                entries.append(f"    {json.dumps(point_id)}: {cached[1]}")
            text = "{\n" + ",\n".join(entries) + "\n  }"
        else:
            text = json.dumps(value, indent=2, sort_keys=True)
            text = text.replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    fragments.clear()
    fragments.update(fresh)
    return "{\n" + ",\n".join(parts) + "\n}"


# ----------------------------------------------------------------------
# Merge helpers


def merge_provenance(provenances: Sequence[dict | None]) -> dict | None:
    """Fold shard provenances into the merged store's provenance.

    When every shard recorded the same provenance — the normal case:
    one clean checkout fanned out across hosts — the merge collapses
    to that common record, keeping the merged store byte-identical to
    a serial run. When shards disagree (mixed hosts, mixed python or
    numpy versions), the top level keeps only the keys all shards
    agree on and the full per-shard records are preserved under a
    ``"shards"`` list, deduplicated and sorted by their JSON dump so
    the result is independent of merge order. ``None`` entries (shards
    that never computed provenance) are ignored; all-``None`` yields
    ``None`` — the merged store stamps its own environment on save,
    exactly like a fresh store.
    """
    known = [dict(p) for p in provenances if p is not None]
    if not known:
        return None
    distinct: dict[str, dict] = {}
    for record in known:
        distinct[json.dumps(record, sort_keys=True)] = record
    if len(distinct) == 1:
        return next(iter(distinct.values()))
    common = {
        key: value
        for key, value in known[0].items()
        if all(record.get(key, object()) == value for record in known[1:])
    }
    common["shards"] = [distinct[dump] for dump in sorted(distinct)]
    return common


# ----------------------------------------------------------------------
# Salvage scanning helpers

def _skip_whitespace(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    return pos


def _section_start(text: str, name: str) -> int | None:
    """Position of the value of top-level key *name*, or ``None``.

    The store is always written by :meth:`SweepStore.save` with
    ``indent=2, sort_keys=True``, so a top-level key appears at the
    start of a line as ``  "name": `` — point ids and metric names
    can never be mistaken for one (they are indented deeper).
    """
    marker = f'\n  "{name}": '
    index = text.find(marker)
    if index < 0:
        return None
    return index + len(marker)


def _salvage_object(text: str, name: str) -> dict | None:
    """Decode top-level object *name* if it is intact."""
    start = _section_start(text, name)
    if start is None:
        return None
    try:
        value, _ = json.JSONDecoder().raw_decode(text, start)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _salvage_mapping(text: str, name: str) -> tuple[dict[str, Any], bool]:
    """Decode the entries of top-level mapping *name*, best effort.

    Walks ``"key": value`` pairs one at a time with ``raw_decode``;
    the first undecodable byte ends the scan. Returns the recovered
    entries and whether the section closed cleanly (``False`` means
    truncation — entries after the damage are unrecoverable).
    """
    start = _section_start(text, name)
    if start is None:
        return {}, False
    pos = _skip_whitespace(text, start)
    if pos >= len(text) or text[pos] != "{":
        return {}, False
    pos += 1
    decoder = json.JSONDecoder()
    records: dict[str, Any] = {}
    while True:
        pos = _skip_whitespace(text, pos)
        if pos < len(text) and text[pos] == ",":
            pos = _skip_whitespace(text, pos + 1)
        if pos >= len(text):
            return records, False
        if text[pos] == "}":
            return records, True
        try:
            key, pos = decoder.raw_decode(text, pos)
            pos = _skip_whitespace(text, pos)
            if text[pos] != ":":
                return records, False
            pos = _skip_whitespace(text, pos + 1)
            value, pos = decoder.raw_decode(text, pos)
        except (ValueError, IndexError):
            return records, False
        if not isinstance(key, str):
            return records, False
        records[key] = value
