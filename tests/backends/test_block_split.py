"""Splitting a slab's hop waves into thread blocks changes no output.

``FastSimulation._route_waves`` routes contiguous blocks of a slab's
target-sorted columns on the block pool, merges their integer
counters after the join and pays the first hop once over the whole
slab. These tests force many blocks on small configurations (a tiny
block minimum and a CPU budget above the real one) and compare every
output, byte for byte, with the one-block run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro.backends import fast
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation
from repro.backends.timed import TimedSimulation, _PathRecorder
from repro.perf.bench import LATENCY_PROFILE

from .decoded_oracle import run_decoded

VECTORS = ("forwarded", "first_hop", "income", "expenditure")
COUNTERS = ("files", "chunks", "total_hops", "local_hits", "fallbacks",
            "cache_hits", "unavailable")

BASE = FastSimulationConfig(n_nodes=120, n_files=60, batch_files=20)

CONFIGS = {
    "static": BASE,
    "churn": dataclasses.replace(BASE, scenario="churn:rate=0.2,seed=5"),
    "churn_recompute": dataclasses.replace(
        BASE, scenario="churn:rate=0.2,seed=5,recompute=true"),
    "caching": dataclasses.replace(BASE, scenario="caching"),
    "freeriding": dataclasses.replace(
        BASE, scenario="freeriding:fraction=0.3,seed=13"),
    "churn_freeriding_caching": dataclasses.replace(
        BASE, scenario="churn:rate=0.1,seed=8+freeriding:fraction=0.3"
                       "+caching"),
    "proximity_pricing": dataclasses.replace(BASE, pricing="proximity"),
    # With the default base every price is a multiple of 2**-bits, so
    # any summation order gives the same bits; a base of 0.3 makes the
    # payment's order visible in income and expenditure.
    "inexact_prices": dataclasses.replace(BASE, pricing_base=0.3),
    "inexact_prices_churn_freeriding": dataclasses.replace(
        BASE, pricing_base=0.3,
        scenario="churn:rate=0.2,seed=5+freeriding:fraction=0.3"),
}


@pytest.fixture
def split(monkeypatch):
    """Route with blocks of >= 8 chunks on up to *threads* threads.

    Returns a setter; every call records the most blocks one slab
    split into, so a test can check that the split really happened.
    """
    most = []
    spans = fast._block_spans

    def recording(size):
        result = spans(size)
        most.append(len(result))
        return result

    monkeypatch.setattr(fast, "_block_spans", recording)

    def use(threads: int, min_block: int = 8) -> list[int]:
        monkeypatch.setattr(fast, "_MIN_BLOCK_CHUNKS", min_block)
        monkeypatch.setattr(fast, "_cpu_budget", lambda: threads)
        most.clear()
        return most

    return use


def assert_same_result(expected, actual) -> None:
    for name in VECTORS:
        left, right = getattr(expected, name), getattr(actual, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    for name in COUNTERS:
        assert getattr(expected, name) == getattr(actual, name), name
    assert (list(expected.hop_histogram.items())
            == list(actual.hop_histogram.items()))


def digest(result) -> str:
    hasher = hashlib.sha256()
    for name in VECTORS:
        hasher.update(getattr(result, name).tobytes())
    hasher.update(repr([getattr(result, name) for name in COUNTERS]
                       + list(result.hop_histogram.items())).encode())
    return hasher.hexdigest()


class TestSpans:
    def test_small_slab_is_one_block(self, monkeypatch):
        def no_budget():
            raise AssertionError("a small slab looked up the CPUs")

        monkeypatch.setattr(fast, "_cpu_budget", no_budget)
        size = 2 * fast._MIN_BLOCK_CHUNKS - 1
        assert fast._block_spans(size) == [(0, size)]

    def test_one_cpu_is_one_block(self, monkeypatch):
        monkeypatch.setattr(fast, "_cpu_budget", lambda: 1)
        size = 10 * fast._MIN_BLOCK_CHUNKS
        assert fast._block_spans(size) == [(0, size)]

    @pytest.mark.parametrize("threads, size, blocks", [
        (4, 100, 4), (4, 35, 4), (4, 31, 3), (3, 1000, 3), (2, 17, 2),
    ])
    def test_contiguous_blocks_cover_the_slab(self, monkeypatch, threads,
                                              size, blocks):
        monkeypatch.setattr(fast, "_MIN_BLOCK_CHUNKS", 8)
        monkeypatch.setattr(fast, "_cpu_budget", lambda: threads)
        spans = fast._block_spans(size)
        assert len(spans) == blocks
        assert spans[0][0] == 0 and spans[-1][1] == size
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert min(hi - lo for lo, hi in spans) >= 8

    def test_one_block_per_cpu(self):
        cpus = fast._cpu_budget()
        assert cpus >= 1
        size = 64 * fast._MIN_BLOCK_CHUNKS
        assert len(fast._block_spans(size)) == min(64, cpus)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_split_run_matches_one_block(self, split, name, threads):
        config = CONFIGS[name]
        split(1)
        expected = FastSimulation(config).run()
        most = split(threads)
        actual = FastSimulation(config).run()
        assert max(most) == threads
        assert_same_result(expected, actual)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_split_run_matches_decoded_oracle(self, split, name):
        # An independent reference for what the one-block comparison
        # cannot see: a merge that changed the one-block run as well,
        # e.g. the histogram's key order.
        config = CONFIGS[name]
        split(4)
        assert_same_result(run_decoded(config),
                           FastSimulation(config).run())

    def test_default_split_matches_one_block(self, monkeypatch):
        # Real block minimum and CPU budget: slabs of ~80k chunks split
        # on every multi-CPU host.
        config = dataclasses.replace(
            BASE, n_files=150, batch_files=150,
            scenario="churn:rate=0.1,seed=8+freeriding:fraction=0.3")
        actual = FastSimulation(config).run()
        monkeypatch.setattr(fast, "_cpu_budget", lambda: 1)
        assert_same_result(FastSimulation(config).run(), actual)

    def test_unpaid_origins_match(self, split):
        simulation = FastSimulation(BASE)
        unpaid = np.zeros(BASE.n_nodes, dtype=bool)
        unpaid[::3] = True
        split(1)
        expected = simulation.run(unpaid_origins=unpaid)
        split(4)
        actual = simulation.run(unpaid_origins=unpaid)
        assert_same_result(expected, actual)

    def test_time_backend_paths_and_latency_match(self, split):
        config = dataclasses.replace(BASE, **LATENCY_PROFILE)

        def paths_and_latency():
            timed = TimedSimulation(config)
            simulation = timed._fast
            result = simulation.new_result()
            file_origins, sizes, targets = simulation._flatten_workload(
                config.workload())
            recorder = _PathRecorder(int(targets.size))
            simulation._route_slabs(np.repeat(file_origins, sizes), sizes,
                                    targets, result, recorder=recorder)
            paths = recorder.assemble()
            return paths, TimedSimulation(config).run()

        split(1)
        expected_paths, expected = paths_and_latency()
        most = split(4)
        actual_paths, actual = paths_and_latency()
        assert max(most) == 4
        for name in ("hops", "offsets", "nodes", "zero_ids"):
            left = getattr(expected_paths, name)
            right = getattr(actual_paths, name)
            assert left.dtype == right.dtype, name
            assert left.tobytes() == right.tobytes(), name
        assert expected.latency_ms.tobytes() == actual.latency_ms.tobytes()
        assert_same_result(expected, actual)


class TestJoin:
    def test_error_is_raised_after_every_block_finished(self, split,
                                                        monkeypatch):
        original = FastSimulation._route_block
        finished = []

        def failing(self, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("block 0 failed")
            time.sleep(0.2)
            counts = original(self, *args, **kwargs)
            finished.append(threading.current_thread().name)
            return counts

        monkeypatch.setattr(FastSimulation, "_route_block", failing)
        split(4)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            FastSimulation(BASE).run()
        # One slab failed; its three pool blocks all ran to the end.
        assert len(finished) == 3

    def test_pool_block_error_reaches_the_caller(self, split,
                                                 monkeypatch):
        original = FastSimulation._route_block

        def failing(self, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("pool block failed")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FastSimulation, "_route_block", failing)
        split(3)
        with pytest.raises(ValueError, match="pool block failed"):
            FastSimulation(BASE).run()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_routes_a_split_slab(self, split):
        split(4)
        # Route once first so the parent's block pool has threads.
        expected = digest(FastSimulation(BASE).run())
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a threaded process; the
            # child only routes, which is what this test checks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                if digest(FastSimulation(BASE).run()) == expected:
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung routing a split slab")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0
