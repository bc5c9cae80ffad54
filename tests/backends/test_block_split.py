"""Splitting a slab into thread blocks changes no output.

``FastSimulation._route_batch`` cuts a large slab into target ranges
(``fast._target_spans``); each block selects, filters, sorts and
routes its own chunks on the block pool, the integer counters merge
after the join, and each block books its wave-1 payments into the
slab's ledger (``fast._SlabLedger``) in block order, each continuing
the sums the block before it left (a lone block opens them). These
tests force many blocks on small configurations (a tiny block minimum
and a CPU budget above the real one) and compare every output, byte
for byte, with the one-block run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.backends import fast
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation, StreamSession
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
    # A bounded cache evicts in insertion order, so it only matches if
    # the kept targets are cached in slab order.
    "bounded_cache_churn": dataclasses.replace(
        BASE, scenario="caching:size=64+churn:rate=0.2,seed=5"),
    # Hits and misses are booked in two separate slab-order sums.
    "inexact_prices_caching": dataclasses.replace(
        BASE, pricing_base=0.3, scenario="caching"),
}


@pytest.fixture
def split(monkeypatch):
    """Route with blocks of >= 8 chunks on up to *threads* threads.

    Returns a setter; every call records how many blocks each slab
    split into, so a test can check that the split really happened.
    """
    most = []
    spans = fast._target_spans

    def recording(targets, bits):
        result = spans(targets, bits)
        most.append(len(result))
        return result

    monkeypatch.setattr(fast, "_target_spans", recording)

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


def uniform_targets(size: int, bits: int = 16) -> np.ndarray:
    return np.random.default_rng(size).integers(
        0, 1 << bits, size=size).astype(np.uint16)


def route_slab(simulation: FastSimulation, origins: np.ndarray,
               targets: np.ndarray):
    """One slab fed as the only epoch of a fresh result."""
    result = simulation.new_result()
    with StreamSession(simulation, result=result, n_epochs=1) as session:
        session.feed(origins, targets)
    return result


@pytest.fixture
def bookings(monkeypatch):
    """Every ``_SlabLedger.book`` call that pays, as ``(ledger, block,
    opened)`` in call order; *opened* is whether the ledger was still
    unopened when the call began (race-free only while one block
    books)."""
    calls = []
    book = fast._SlabLedger.book

    def recording(ledger, block, *payments):
        if payments:
            calls.append((ledger, block, ledger.sums is None))
        book(ledger, block, *payments)

    monkeypatch.setattr(fast._SlabLedger, "book", recording)
    return calls


class TestSpans:
    def test_small_slab_is_one_block(self, monkeypatch):
        def no_budget():
            raise AssertionError("a small slab looked up the CPUs")

        monkeypatch.setattr(fast, "_cpu_budget", no_budget)
        size = 2 * fast._MIN_BLOCK_CHUNKS - 1
        assert fast._target_spans(uniform_targets(size), 16) == [(0, 1 << 16)]

    def test_one_cpu_is_one_block(self, monkeypatch):
        monkeypatch.setattr(fast, "_cpu_budget", lambda: 1)
        size = 10 * fast._MIN_BLOCK_CHUNKS
        assert fast._target_spans(uniform_targets(size), 16) == [(0, 1 << 16)]

    @pytest.mark.parametrize("threads, size, blocks", [
        (4, 100, 4), (4, 35, 4), (4, 31, 3), (3, 1000, 3), (2, 17, 2),
    ])
    def test_contiguous_blocks_cover_the_slab(self, monkeypatch, threads,
                                              size, blocks):
        monkeypatch.setattr(fast, "_MIN_BLOCK_CHUNKS", 8)
        monkeypatch.setattr(fast, "_cpu_budget", lambda: threads)
        targets = uniform_targets(size, bits=12)
        spans = fast._target_spans(targets, 12)
        assert len(spans) == blocks
        assert spans[0][0] == 0 and spans[-1][1] == 1 << 12
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        # Each inner edge closes the histogram bin (4 addresses wide at
        # 12 bits) that reaches the block's equal share of the chunks.
        for k, (_, edge) in enumerate(spans[:-1], start=1):
            quota = size * k // blocks
            assert np.count_nonzero(targets < edge) >= quota
            assert np.count_nonzero(targets < edge - 4) < quota

    def test_one_block_per_cpu(self):
        cpus = fast._cpu_budget()
        assert cpus >= 1
        size = 64 * fast._MIN_BLOCK_CHUNKS
        assert len(fast._target_spans(uniform_targets(size), 16)) == min(
            64, cpus)

    def test_clustered_targets_leave_blocks_empty(self, monkeypatch):
        monkeypatch.setattr(fast, "_MIN_BLOCK_CHUNKS", 8)
        monkeypatch.setattr(fast, "_cpu_budget", lambda: 4)
        # Every target in one 64-address histogram bin of a 16-bit
        # space: the first block takes them all.
        targets = (4608 + uniform_targets(500) % 64).astype(np.uint16)
        spans = fast._target_spans(targets, 16)
        assert spans == [(0, 4672), (4672, 4672), (4672, 4672),
                         (4672, 1 << 16)]


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

    @pytest.mark.parametrize("name", ["static", "churn_freeriding_caching"])
    def test_clustered_slab_matches_one_block(self, split, monkeypatch,
                                              bookings, name):
        # Every target in one histogram bin: one block routes the whole
        # slab and the other three select nothing. (The bin's storer is
        # alive under the churn config, so its chunks do route.)
        config = CONFIGS[name]
        simulation = FastSimulation(config)
        rng = np.random.default_rng(3)
        origins = rng.integers(0, config.n_nodes, 5000).astype(np.uint16)
        targets = (8192 + rng.integers(0, 64, 5000)).astype(np.uint16)
        outputs = []
        run_blocks = fast._run_blocks

        def recording(route, spans):
            blocks = run_blocks(route, spans)
            outputs.append((spans, blocks))
            return blocks

        monkeypatch.setattr(fast, "_run_blocks", recording)
        split(1)
        expected = route_slab(simulation, origins, targets)
        # A lone block books through the ledgers too, opening each sum.
        assert bookings
        assert all(block == 0 and opened for _, block, opened in bookings)
        del bookings[:]
        most = split(4)
        actual = route_slab(simulation, origins, targets)
        assert most == [4]
        assert_same_result(expected, actual)
        spans, blocks = outputs[-1]
        assert [block for block, _, _ in spans] == [0, 1, 2, 3]
        full = [block for block, lo, hi in spans
                if np.any((targets >= lo) & (targets < hi))]
        assert full == [0]
        for counts in (counts for phases in blocks[1:] for counts in phases):
            assert counts.forwarded is None
            assert not counts.hops
            assert (counts.total_hops, counts.fallbacks, counts.local_hits,
                    counts.cache_hits, counts.unavailable) == (0,) * 5
        # The empty blocks book nothing; the full one opens each sum
        # it books (the cache's hits ledger stays unopened: an empty
        # cache has no hits).
        assert bookings
        assert all(block == 0 and opened for _, block, opened in bookings)
        ledgers = [ledger for ledger, _, _ in bookings]
        assert len(set(map(id, ledgers))) == len(ledgers)

    def test_time_backend_paths_and_latency_match(self, split):
        config = dataclasses.replace(BASE, **LATENCY_PROFILE)

        def paths_and_latency():
            timed = TimedSimulation(config)
            simulation = timed._fast
            result = simulation.new_result()
            file_origins, sizes, targets = simulation._flatten_workload(
                config.workload())
            recorder = _PathRecorder(int(targets.size))
            simulation._route_slabs(file_origins, sizes, targets, result,
                                    recorder=recorder)
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


class TestBookingChain:
    def test_failed_block_cannot_hang_the_chain(self, split, monkeypatch,
                                                bookings):
        config = CONFIGS["inexact_prices"]
        simulation = FastSimulation(config)
        split(1)
        expected = simulation.run()
        del bookings[:]  # the one-block run booked through ledgers too
        original = FastSimulation._route_block
        failing_threads = []

        def failing(self, *args, **kwargs):
            if threading.current_thread() in failing_threads:
                raise RuntimeError("block 0 failed")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FastSimulation, "_route_block", failing)
        most = split(4)
        errors = []

        def run():
            try:
                simulation.run()
            except RuntimeError as error:
                errors.append(error)

        # Block 0 runs on the calling thread: here, one the test can
        # time out on, so a block left waiting for its turn fails the
        # test instead of hanging it.
        caller = threading.Thread(target=run, daemon=True)
        failing_threads.append(caller)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a block is still waiting for its turn"
        assert most == [4]
        assert [str(error) for error in errors] == ["block 0 failed"]
        # Block 0 failed before booking; its turn passed all the same.
        assert sorted(block for _, block, _ in bookings) == [1, 2, 3]

        # Repeated span edges: block 1 is empty, and block 0, held back
        # until blocks 2 and 3 are waiting to book, is the last to
        # arrive but the first in the sums.
        rng = np.random.default_rng(5)
        origins = rng.integers(0, config.n_nodes, 6000).astype(np.uint16)
        targets = np.concatenate([8192 + rng.integers(0, 64, 3600),
                                  40000 + rng.integers(0, 4096, 2400)]
                                 ).astype(np.uint16)
        split(1)
        clustered = route_slab(simulation, origins, targets)
        arrived = threading.Semaphore(0)
        book = fast._SlabLedger.book

        def announcing(ledger, block, *payments):
            if payments:
                arrived.release()
            book(ledger, block, *payments)

        def late_block_0(self, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                assert arrived.acquire(timeout=60)
                assert arrived.acquire(timeout=60)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(fast._SlabLedger, "book", announcing)
        monkeypatch.setattr(FastSimulation, "_route_block", late_block_0)
        split(4)
        spans = fast._target_spans(targets, simulation.space.bits)
        assert spans[:2] == [(0, 8256), (8256, 8256)]
        del bookings[:]
        assert_same_result(clustered, route_slab(simulation, origins, targets))
        assert sorted(block for _, block, _ in bookings[:2]) == [2, 3]
        assert bookings[2][1] == 0 and len(bookings) == 3

        # Nothing is left over for the next run.
        monkeypatch.setattr(FastSimulation, "_route_block", original)
        assert_same_result(expected, simulation.run())

    def test_eight_blocks_under_fast_thread_switching(self, split):
        # More blocks than CPUs, switching threads every microsecond:
        # a block booking out of turn changes the inexact sums' bits.
        config = CONFIGS["inexact_prices_caching"]
        split(1)
        expected = FastSimulation(config).run()
        most = split(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert_same_result(expected, FastSimulation(config).run())
        finally:
            sys.setswitchinterval(interval)
        assert max(most) == 8


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
