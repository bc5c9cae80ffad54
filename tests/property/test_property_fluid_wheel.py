"""Differential fuzzing of the edge-bundle fluid wheel.

:class:`repro.backends.timed.FluidWheel` keeps its active transfers as
bundles — one pool row per (sender, receiver) pair activated at one
event — with incremental node degrees and a per-sender FIFO admission
queue. That is only sound if every transfer still sees the same float
operations in the same event sequence as the per-transfer wheel it
replaced. The oracle is that wheel, kept verbatim in
``tests/backends/wheel_oracle.py``: on random small paths (1-4 hops
over a handful of nodes, so endpoints are shared and pairs repeat),
bounded and unbounded links, concurrency caps 0-3, slotted and
unslotted time and coincident releases, both wheels must return
bit-identical completion times.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ..backends.wheel_oracle import FluidWheel as OracleWheel
from ..backends.wheel_oracle import one_window

#: Link speeds in bytes/s; 0 means unbounded.
SPEEDS = (0.0, 2.5e4, 1e5, 3.2e5, 1e6)


@st.composite
def wheels(draw):
    """Keyword arguments of one small wheel."""
    n_nodes = draw(st.integers(2, 6))
    node = st.integers(0, n_nodes - 1)
    chunks = draw(st.lists(
        st.tuples(
            st.lists(node, min_size=1, max_size=4),  # request path
            node,                                     # originator
            st.integers(0, 6),                        # release slot
        ),
        min_size=1, max_size=24,
    ))
    paths = [path for path, _, _ in chunks]
    hops = np.array([len(path) for path in paths], dtype=np.int32)
    offsets = np.zeros(hops.size, dtype=np.int64)
    np.cumsum(hops[:-1], out=offsets[1:])
    # A few distinct release instants, many chunks per instant. Late
    # instants coarsen float time, so scheduled completions can leave
    # more than the byte tolerance behind (the wheel's fallback).
    step = draw(st.sampled_from([0.0, 0.003, 0.01, 0.0125]))
    base = draw(st.sampled_from([0.05, 3.3e5]))
    return {
        "n_nodes": n_nodes,
        "chunk_bytes": draw(st.sampled_from([1000.0, 4096.0])),
        "up_bytes_s": draw(st.sampled_from(SPEEDS)),
        "down_bytes_s": draw(st.sampled_from(SPEEDS)),
        "max_concurrent": draw(st.integers(0, 3)),
        "quantum_s": draw(st.sampled_from([0.0, 0.001, 0.01])),
        "release_s": np.array([base + slot * step
                               for _, _, slot in chunks]),
        "hops": hops,
        "offsets": offsets,
        "nodes": np.array([n for path in paths for n in path],
                          dtype=np.int32),
        "origins": np.array([origin for _, origin, _ in chunks],
                            dtype=np.int64),
    }


def run(wheel_class, kwargs) -> np.ndarray:
    copies = {key: value.copy() if isinstance(value, np.ndarray) else value
              for key, value in kwargs.items()}
    return wheel_class(**copies).run()


class TestBundleWheelMatchesOracle:
    @given(wheels())
    @settings(max_examples=300, deadline=None)
    def test_completion_times_bit_identical(self, kwargs):
        expected = run(OracleWheel, kwargs)
        done = run(one_window, kwargs)
        assert np.array_equal(done, expected)

    @given(wheels(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_capped_bit_identical_over_contended_links(self, kwargs, cap):
        # Every transfer contends and queues: one slow link speed,
        # a cap, every chunk released at once.
        kwargs.update(up_bytes_s=2.5e4, down_bytes_s=1e5,
                      max_concurrent=cap,
                      release_s=np.full(kwargs["hops"].size, 0.05))
        assert np.array_equal(run(one_window, kwargs),
                              run(OracleWheel, kwargs))
