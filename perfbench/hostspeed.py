"""How fast the host runs right now, from a fixed calibration loop.

On a shared host the same pass runs up to 1.8x slower for seconds to
minutes at a time. CPU time moves with wall time and no steal time
shows: the whole host slows, so no amount of averaging inside a run
removes it, and ten runs of the same code land wherever the host's
slow spells fall. The harness therefore times this loop before and
after every pass and scales the pass's times and rates to a host that
runs the loop in ``REFERENCE_S``.

The loop has two parts, for the two kinds of work the workloads do:
interpreter work (stdlib JSON parsing and plain arithmetic) and numpy
array work (a gather and bincount over a table larger than the caches).
Each workload names the parts that track its own speed. The loop is the
benchmark's own code, so a change to the program moves the scaled
figures and a change in the host's speed does not.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Each part's time on the reference host: the fast state of a shared
#: 2-vCPU x86-64 VM, Python 3.11, numpy 2.4.
REFERENCE_S = {"python": 0.013, "numpy": 0.010}


class HostSpeed:
    """The calibration loop, its fixed inputs and the parts it times."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = parts
        if not parts:
            return
        rng = np.random.default_rng(0)
        self._lines = [
            json.dumps({"originator": int(origin),
                        "chunks": rng.integers(0, 1 << 16, 4).tolist()})
            for origin in rng.integers(0, 1 << 16, 3000)]
        self._table = rng.integers(0, 1000, 1 << 22).astype(np.uint16)
        self._index = rng.integers(0, 1 << 22, 1 << 19)

    def _python(self) -> None:
        for line in self._lines:
            json.loads(line)
        total = 0
        for i in range(160_000):
            total += i & 7

    def _numpy(self) -> None:
        for _ in range(4):
            np.bincount(np.take(self._table, self._index), minlength=1000)

    def slowdown(self) -> float:
        """How many times slower than the reference host the parts ran
        (1.0 for a workload that names no part)."""
        if not self.parts:
            return 1.0
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, f"_{part}")()
        return ((time.perf_counter() - start)
                / sum(REFERENCE_S[part] for part in self.parts))
