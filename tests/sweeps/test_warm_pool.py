"""Warm sweep workers: published overlays, launch order, refill order.

A :class:`ProcessExecutor` publishes each topology's overlay next to
its next-hop table, so a worker decodes the overlay instead of
rebuilding it; the pool is launched before publication so worker
start-up overlaps it; and completed points are followed by the next
submissions *before* the (slow) store save. These tests pin each part
without timing anything, plus the cleanup every exit path owes: no
shared-memory segment and no worker process outlives a run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import cached_overlay, clear_caches
from repro.errors import ConfigurationError, SweepInterrupted
from repro.kademlia.overlay import Overlay
from repro.perf import shared
from repro.perf.shared import SharedTableRegistry, sweep_stale_segments
from repro.perf.table_cache import global_table_cache
from repro.sweeps import (
    ProcessExecutor,
    SerialExecutor,
    SweepSpec,
    table_topologies,
)
from repro.sweeps.worker import (
    execute_point,
    point_payload,
    register_table_handles,
)

BASE = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6,
)
#: Two topologies, four seeds each: eight points.
SPEC = SweepSpec(base=BASE, grid={"bucket_size": (4, 8)},
                 backends=("fast",), seeds=4)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture()
def published():
    """Every topology of SPEC published; yields handles by fingerprint."""
    registry = SharedTableRegistry()
    handles = {}
    for config in table_topologies(SPEC.base, SPEC.points()):
        handle = registry.acquire(
            global_table_cache().get(cached_overlay(config))
        )
        handles[handle.fingerprint] = handle
    try:
        yield handles
    finally:
        for fingerprint in handles:
            registry.release(fingerprint)


def _segments() -> set[str]:
    """This process's ``repro_<pid>_*`` segments in ``/dev/shm``."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    prefix = f"{shared.SEGMENT_PREFIX}_{os.getpid()}_"
    return {entry.name for entry in shm.iterdir()
            if entry.name.startswith(prefix)}


def _children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _quiet(executor, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return executor.run(*args, **kwargs)


class TestPublishedOverlay:
    def test_worker_runs_points_without_building_an_overlay(
            self, published, monkeypatch):
        serial = SerialExecutor().run(SPEC.base, SPEC.points())
        payloads = {fp: h.to_payload() for fp, h in published.items()}
        clear_caches()
        register_table_handles(payloads)

        def refuse(cls, config):
            raise AssertionError("the published overlay must be used")

        monkeypatch.setattr(Overlay, "build", classmethod(refuse))
        base = dataclasses.asdict(SPEC.base)
        for point, expected in zip(SPEC.points(), serial):
            outcome = execute_point(base, point_payload(point), payloads)
            assert outcome.point_id == expected.point_id
            assert outcome.metrics == expected.metrics
            for name, vector in expected.vectors.items():
                assert np.array_equal(outcome.vectors[name], vector), name
        stats = global_table_cache().stats
        assert stats.builds == 0
        assert stats.attaches == len(published)

    def test_decoded_overlay_keeps_bucket_order(self, published):
        originals = {h.fingerprint: cached_overlay(c) for h, c in zip(
            published.values(), table_topologies(SPEC.base, SPEC.points())
        )}
        for fingerprint, handle in published.items():
            decoded = shared.attach_overlay(handle)
            original = originals[fingerprint]
            assert decoded is not original
            assert decoded.to_dict() == original.to_dict()
            assert decoded.fingerprint() == fingerprint

    @staticmethod
    def _forged(handle, data):
        segment, spec = shared._create_segment(
            np.frombuffer(data, dtype=np.uint8)
        )
        return segment, dataclasses.replace(handle, overlay=spec)

    @pytest.mark.parametrize("tamper, match", [
        ("drop an edge", "does not match"),
        ("other topology", "does not match"),
        ("not json", "does not decode"),
    ])
    def test_overlay_of_a_different_structure_is_refused(
            self, published, tamper, match):
        handle, other = published.values()
        if tamper == "drop an edge":
            data = shared.attach_overlay(handle).to_dict()
            owner = next(k for k, peers in data["tables"].items()
                         if len(peers) > 1)
            data["tables"][owner].pop()
            raw = json.dumps(data).encode()
        elif tamper == "other topology":
            raw = json.dumps(shared.attach_overlay(other).to_dict()).encode()
        else:
            raw = b"{not json"
        segment, forged = self._forged(handle, raw)
        try:
            clear_caches()
            with pytest.raises(ConfigurationError, match=match):
                register_table_handles(
                    {forged.fingerprint: forged.to_payload()}
                )
            assert not global_table_cache().is_registered(forged)
        finally:
            segment.close()
            segment.unlink()

    def test_overlay_segment_is_reclaimed_when_publisher_died(
            self, monkeypatch):
        child = os.fork()
        if child == 0:
            os._exit(0)  # pragma: no cover - child exits immediately
        os.waitpid(child, 0)
        # Name the segments for the dead child, as if it had published.
        monkeypatch.setattr(shared, "_segment_name", lambda: (
            f"{shared.SEGMENT_PREFIX}_{child}_"
            f"{os.urandom(4).hex()}"
        ))
        registry = SharedTableRegistry()
        overlay = cached_overlay(BASE.overlay_config())
        handle = registry.acquire(global_table_cache().get(overlay))
        with pytest.warns(RuntimeWarning, match="stale"):
            removed = sweep_stale_segments()
        assert {handle.coded.name, handle.storer.name,
                handle.overlay.name} <= set(removed)
        registry.release(handle.fingerprint)  # already gone: a no-op


class RecordingExecutor(ProcessExecutor):
    """Counts submissions and the in-flight high-water mark."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0
        self.most_inflight = 0
        self.submitted_at_result: list[int] = []

    def _top_up(self, pool, base_payload, handles, ready, inflight,
                tracker, workers):
        before = len(inflight)
        broken = super()._top_up(pool, base_payload, handles, ready,
                                 inflight, tracker, workers)
        self.submitted += len(inflight) - before
        self.most_inflight = max(self.most_inflight, len(inflight))
        return broken

    def on_result(self, outcome) -> None:
        self.submitted_at_result.append(self.submitted)


class TestSubmitBeforeSave:
    def test_next_points_are_submitted_before_on_result(self):
        jobs = 2
        points = SPEC.points()
        executor = RecordingExecutor(jobs)
        outcomes = _quiet(executor, SPEC.base, points, executor.on_result)
        assert len(outcomes) == len(points)
        assert executor.submitted == len(points)
        assert executor.most_inflight <= jobs
        # When on_result runs for the m-th completed point, the pool
        # has already been refilled: m + jobs points were submitted.
        for m, submitted in enumerate(executor.submitted_at_result, 1):
            assert submitted >= min(len(points), m + jobs), (
                m, executor.submitted_at_result)


class TestNothingOutlivesARun:
    def _check_clean(self, segments, children):
        assert _segments() <= segments
        assert _children() <= children

    def test_normal_run(self):
        segments, children = _segments(), _children()
        _quiet(ProcessExecutor(2), SPEC.base, SPEC.points())
        self._check_clean(segments, children)

    def test_interrupted_run(self):
        segments, children = _segments(), _children()

        def interrupt(outcome):
            raise SweepInterrupted(signal.SIGINT)

        with pytest.raises(SweepInterrupted):
            _quiet(ProcessExecutor(2), SPEC.base, SPEC.points(), interrupt)
        self._check_clean(segments, children)

    def test_publication_failure_after_launch(self, monkeypatch):
        segments, children = _segments(), _children()
        seen = {}

        def fail(self, base, points, registry, payloads, acquired):
            # The dense tables and overlays are published by now.
            seen["workers"] = _children() - children
            seen["segments"] = _segments() - segments
            raise RuntimeError("publication failed")

        monkeypatch.setattr(ProcessExecutor, "_publish_epoch_tables", fail)
        with pytest.raises(RuntimeError, match="publication failed"):
            _quiet(ProcessExecutor(2), SPEC.base, SPEC.points())
        # The pool was launched before publication started...
        assert len(seen["workers"]) == 2
        if Path("/dev/shm").is_dir():
            assert len(seen["segments"]) == 3 * len(
                table_topologies(SPEC.base, SPEC.points())
            )
        # ...and both were torn down when it raised.
        self._check_clean(segments, children)
