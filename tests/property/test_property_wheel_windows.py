"""Differential fuzzing of the fluid wheel's windowed admission.

:class:`repro.backends.timed.FluidWheel` takes its chunks as
:class:`~repro.backends.timed.ReleaseWindow` s, loading a window only
once the next release batch reaches the window's floor, retiring the
words of finished windows and compacting its member store and request
log in place. That is only sound if it fires the same events and
writes the same completion times as the wheel given every chunk in
one window, and so as the per-transfer oracle in
``tests/backends/wheel_oracle.py``. Windows here are random cuts of
the chunk sequence (empty windows included); the few release instants
make windows share instants, and the ids leave random gaps in
``done``, whose slots the wheel must not touch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.timed import FluidWheel, ReleaseWindow
from repro.engine.des import EventScheduler

from ..backends.wheel_oracle import FluidWheel as OracleWheel
from ..backends.wheel_oracle import one_window
from .test_property_fluid_wheel import run, wheels

#: What the gaps between window ids hold before and after the run.
GAP = 0.5


@st.composite
def cuts(draw, size: int):
    """Sorted window boundaries in ``[0, size]``, repeats allowed."""
    return sorted(draw(st.lists(st.integers(0, size), max_size=8)))


def windows_of(kwargs, bounds, gaps, slack):
    """Cut a one-window wheel's chunks into windows at *bounds*."""
    release = kwargs["release_s"]
    hops, offsets = kwargs["hops"], kwargs["offsets"]
    ids = np.cumsum(np.asarray(gaps) + 1) - 1
    edges = [0, *bounds, hops.size]
    windows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        first = int(offsets[lo]) if lo < hops.size else 0
        last = int(offsets[hi - 1] + hops[hi - 1]) if hi > lo else first
        # At most the release of every chunk in this window and after.
        floor = float(release[lo:].min()) - slack if lo < hops.size else 0.0
        windows.append(ReleaseWindow(
            release_s=release[lo:hi].copy(), hops=hops[lo:hi],
            offsets=offsets[lo:hi] - first,
            nodes=kwargs["nodes"][first:last],
            origins=kwargs["origins"][lo:hi], ids=ids[lo:hi],
            floor=floor))
    return windows, ids


def fired_by(make):
    """Run the wheel *make* builds; return its times and event count."""
    fired = []
    run_all = EventScheduler.run_all

    def counting(self, **options):
        fired.append(run_all(self, **options))
        return fired[-1]

    with mock.patch.object(EventScheduler, "run_all", counting):
        done = make().run()
    return done, sum(fired)


@st.composite
def windowed_wheels(draw):
    kwargs = draw(wheels())
    m = kwargs["hops"].size
    return (kwargs, draw(cuts(m)),
            draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
            draw(st.sampled_from([0.0, 0.01])))


class TestWindowedAdmissionMatchesWholeArrays:
    @given(windowed_wheels())
    @settings(max_examples=300, deadline=None)
    def test_same_events_and_completion_times(self, case):
        kwargs, bounds, gaps, slack = case
        whole, whole_fired = fired_by(lambda: one_window(**{
            key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in kwargs.items()}))
        windows, ids = windows_of(kwargs, bounds, gaps, slack)
        done = np.full(int(ids[-1]) + 1, GAP)
        links = {key: kwargs[key] for key in (
            "n_nodes", "chunk_bytes", "up_bytes_s", "down_bytes_s",
            "max_concurrent", "quantum_s")}
        windowed, windowed_fired = fired_by(lambda: FluidWheel(
            **links, windows=iter(windows), done=done))
        assert windowed is done
        assert done[ids].tobytes() == whole.tobytes()
        untouched = np.ones(done.size, dtype=bool)
        untouched[ids] = False
        assert (done[untouched] == GAP).all()
        assert windowed_fired == whole_fired
        assert np.array_equal(whole, run(OracleWheel, kwargs))

    @given(windowed_wheels(), st.sampled_from([0, 2]),
           st.sampled_from([0.0, 0.01]))
    @settings(max_examples=100, deadline=None)
    def test_capped_and_slotted_contention(self, case, cap, quantum):
        # Every chunk contends on one slow link speed, released at one
        # of two instants, so windows share instants and queues build.
        kwargs, bounds, gaps, slack = case
        m = kwargs["hops"].size
        kwargs.update(up_bytes_s=2.5e4, down_bytes_s=1e5,
                      max_concurrent=cap, quantum_s=quantum,
                      release_s=np.where(np.arange(m) % 3, 0.05, 0.06))
        whole = run(one_window, kwargs)
        windows, ids = windows_of(kwargs, bounds, gaps, slack)
        done = np.full(int(ids[-1]) + 1, GAP)
        FluidWheel(n_nodes=kwargs["n_nodes"],
                   chunk_bytes=kwargs["chunk_bytes"], up_bytes_s=2.5e4,
                   down_bytes_s=1e5, max_concurrent=cap, quantum_s=quantum,
                   windows=windows, done=done).run()
        assert done[ids].tobytes() == whole.tobytes()
        assert np.array_equal(whole, run(OracleWheel, kwargs))
