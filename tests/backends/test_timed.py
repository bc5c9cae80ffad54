"""The time-domain backend: equivalence oracle and the fluid wheel.

The acceptance oracle for the ``time`` backend is that with unbounded
bandwidth its hop-count projection (per-node forwarded / first-hop
counters, hop histogram, income) is **bit-identical** to the fast
backend — on the canonical golden configuration, on every frozen
scenario fixture, and on composed scenario stacks. The wheel tests
then pin the timing semantics: propagation floors, fair-share
slowdowns, quantum batching, concurrency caps, and determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.backends import get_backend, run_simulation
from repro.backends.config import FastSimulationConfig
from repro.backends.timed import (
    _EPS_BYTES,
    TimedSimulation,
    _snap_up,
)
from repro.engine.des import EventScheduler
from repro.errors import ConfigurationError, SimulationError

from . import table_oracle
from .wheel_oracle import FluidWheel as OracleWheel
from .wheel_oracle import one_window
from .test_golden import GOLDEN_CONFIG, GOLDEN_DIR, golden_payload
from .test_golden_scenarios import (
    SCENARIO_GOLDEN_CONFIGS,
    scenario_payload,
)

EXACT_ATTRS = ("forwarded", "first_hop", "income", "expenditure")
COUNTERS = ("files", "chunks", "total_hops", "local_hits", "fallbacks",
            "cache_hits", "unavailable")


def assert_matches_fast(config: FastSimulationConfig) -> None:
    fast = get_backend("fast").prepare(config).run()
    timed = get_backend("time").prepare(config).run()
    for attr in EXACT_ATTRS:
        assert np.array_equal(getattr(fast, attr), getattr(timed, attr)), attr
    for attr in COUNTERS:
        assert getattr(fast, attr) == getattr(timed, attr), attr
    assert fast.hop_histogram == timed.hop_histogram
    # Every retrieved chunk produced exactly one latency sample.
    assert timed.latency_ms is not None
    assert timed.latency_ms.size == timed.chunks - timed.unavailable


class TestEquivalenceOracle:
    def test_matches_fast_on_golden_config(self):
        assert_matches_fast(GOLDEN_CONFIG)

    @pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN_CONFIGS))
    def test_matches_fast_on_scenario_configs(self, name):
        assert_matches_fast(SCENARIO_GOLDEN_CONFIGS[name])

    def test_matches_golden_fixture(self):
        result = run_simulation(GOLDEN_CONFIG, backend="time")
        frozen = json.loads((GOLDEN_DIR / "fast.json").read_text())
        assert golden_payload(result) == frozen

    @pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN_CONFIGS))
    def test_matches_scenario_golden_fixtures(self, name):
        result = run_simulation(
            SCENARIO_GOLDEN_CONFIGS[name], backend="time"
        )
        frozen = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert scenario_payload(result) == frozen

    def test_matches_fast_on_composed_scenario(self):
        assert_matches_fast(dataclasses.replace(
            GOLDEN_CONFIG,
            batch_files=8,
            scenario=("churn:rate=0.2,recompute=true+caching"
                      "+freeriding:fraction=0.2"),
        ))

    def test_time_fields_do_not_perturb_routing(self):
        # Timing parameters only affect the clock, never who forwards.
        timeless = get_backend("fast").prepare(GOLDEN_CONFIG).run()
        timed = get_backend("time").prepare(dataclasses.replace(
            GOLDEN_CONFIG, hop_latency_ms=25.0, node_up_mbps=8.0,
            node_down_mbps=8.0, max_concurrent=3, arrival_rate=100.0,
            time_quantum_ms=5.0,
        )).run()
        for attr in EXACT_ATTRS:
            assert np.array_equal(
                getattr(timeless, attr), getattr(timed, attr)
            ), attr
        assert timeless.hop_histogram == timed.hop_histogram


class TestTimingSemantics:
    def test_pure_propagation_matches_hop_histogram(self):
        # Unbounded bandwidth: latency is exactly 2 * hops * delay,
        # so the sample distribution IS the hop histogram rescaled.
        config = dataclasses.replace(GOLDEN_CONFIG, hop_latency_ms=30.0)
        result = get_backend("time").prepare(config).run()
        values, counts = np.unique(result.latency_ms, return_counts=True)
        expected = {
            2.0 * hops * 30.0: count
            for hops, count in result.hop_histogram.items()
        }
        assert dict(zip(values.tolist(), counts.tolist())) == expected

    def test_zero_latency_without_time_parameters(self):
        result = get_backend("time").prepare(GOLDEN_CONFIG).run()
        assert np.all(result.latency_ms == 0.0)

    def test_finite_bandwidth_only_adds_latency(self):
        base = dataclasses.replace(GOLDEN_CONFIG, hop_latency_ms=30.0)
        free = get_backend("time").prepare(base).run()
        contended = get_backend("time").prepare(dataclasses.replace(
            base, node_up_mbps=10.0, node_down_mbps=10.0,
        )).run()
        assert np.all(np.sort(contended.latency_ms)
                      >= np.sort(free.latency_ms) - 1e-9)
        assert contended.latency_ms.sum() > free.latency_ms.sum()

    def test_propagation_floor_holds_under_contention(self):
        config = dataclasses.replace(
            GOLDEN_CONFIG, hop_latency_ms=30.0, node_up_mbps=5.0,
            node_down_mbps=5.0, max_concurrent=2, arrival_rate=50.0,
        )
        result = get_backend("time").prepare(config).run()
        routed = result.latency_ms[result.latency_ms > 0]
        assert routed.size
        assert routed.min() >= 2 * 30.0 - 1e-9

    def test_quantum_bounds_latency_error(self):
        base = dataclasses.replace(
            GOLDEN_CONFIG, hop_latency_ms=10.0, node_up_mbps=10.0,
            node_down_mbps=10.0, arrival_rate=100.0,
        )
        exact = get_backend("time").prepare(base).run()
        slotted = get_backend("time").prepare(dataclasses.replace(
            base, time_quantum_ms=5.0,
        )).run()
        # Slots only ever defer completions, by less than one quantum
        # per data hop.
        delta = np.sort(slotted.latency_ms) - np.sort(exact.latency_ms)
        assert np.all(delta >= -1e-6)
        max_hops = max(exact.hop_histogram)
        assert np.all(delta <= 5.0 * max_hops + 1e-6)

    def test_arrival_process_is_seeded(self):
        config = dataclasses.replace(
            GOLDEN_CONFIG, hop_latency_ms=20.0, node_up_mbps=10.0,
            node_down_mbps=10.0, arrival_rate=25.0,
        )
        first = get_backend("time").prepare(config).run()
        again = get_backend("time").prepare(config).run()
        assert np.array_equal(first.latency_ms, again.latency_ms)
        other = get_backend("time").prepare(dataclasses.replace(
            config, arrival_seed=1234,
        )).run()
        assert not np.array_equal(first.latency_ms, other.latency_ms)

    def test_spread_arrivals_reduce_contention(self):
        burst = dataclasses.replace(
            GOLDEN_CONFIG, hop_latency_ms=30.0, node_up_mbps=5.0,
            node_down_mbps=5.0,
        )
        spread = dataclasses.replace(burst, arrival_rate=5.0)
        burst_p95 = get_backend("time").prepare(burst).run()
        spread_p95 = get_backend("time").prepare(spread).run()
        assert (spread_p95.latency_stats().p95_ms
                <= burst_p95.latency_stats().p95_ms)

    def test_latency_stats_requires_time_backend(self):
        result = get_backend("fast").prepare(GOLDEN_CONFIG).run()
        with pytest.raises(ConfigurationError):
            result.latency_stats()


class TestFluidWheel:
    def _single_chain(self, *, up=0.0, down=0.0, cap=0, quantum=0.0,
                      releases=(0.0,), n_chunks=1):
        """n_chunks chunks sharing one 2-hop path 2 -> 1, origin 0."""
        hops = np.full(n_chunks, 2, dtype=np.int32)
        offsets = np.arange(n_chunks, dtype=np.int64) * 2
        nodes = np.tile(np.array([1, 2], dtype=np.int32), n_chunks)
        return one_window(
            n_nodes=3, chunk_bytes=1000.0, up_bytes_s=up,
            down_bytes_s=down, max_concurrent=cap, quantum_s=quantum,
            release_s=np.asarray(releases, dtype=np.float64),
            hops=hops, offsets=offsets, nodes=nodes,
            origins=np.zeros(n_chunks, dtype=np.int64),
        )

    def test_single_transfer_takes_bytes_over_rate(self):
        # 1000 bytes over min(2000 up, 1000 down) B/s per hop = 1s,
        # two data hops (storer -> relay -> origin) = 2s.
        wheel = self._single_chain(up=2000.0, down=1000.0)
        done = wheel.run()
        assert done == pytest.approx([2.0])

    def test_fair_share_halves_rate(self):
        # Two chunks leave the same storer simultaneously: its uplink
        # is split, so the first data hop takes 2s instead of 1s; the
        # second hops overlap the same way.
        wheel = self._single_chain(up=1000.0, n_chunks=2,
                                   releases=(0.0, 0.0))
        done = wheel.run()
        assert done == pytest.approx([4.0, 4.0])

    def test_concurrency_cap_serializes_transfers(self):
        # cap=1 with instantaneous links: transfers still finish in
        # zero time, so the cap alone leaves completion at release.
        wheel = self._single_chain(cap=1, n_chunks=2, releases=(0.0, 1.0))
        done = wheel.run()
        assert done == pytest.approx([0.0, 1.0])

    def test_cap_queues_fifo_per_sender(self):
        # Finite bandwidth + cap=1: the second chunk's first hop waits
        # for the first to release the storer's single slot.
        wheel = self._single_chain(up=1000.0, cap=1, n_chunks=2,
                                   releases=(0.0, 0.0))
        done = wheel.run()
        assert sorted(done.tolist()) == pytest.approx([2.0, 3.0])

    def test_quantum_rounds_completions_up(self):
        wheel = self._single_chain(up=1000.0, quantum=0.3)
        done = wheel.run()
        # Each 1s hop is deferred to the next 0.3s slot boundary.
        assert done == pytest.approx([2.4])

    def test_empty_wheel(self):
        wheel = self._single_chain(n_chunks=0, releases=())
        assert wheel.run().size == 0

    @pytest.mark.parametrize("cap", [0, 2])
    def test_pair_keys_wider_than_int32_match_the_oracle(self, cap):
        # 46_341 ** 2 >= 2 ** 31: pair keys of the highest nodes do not
        # fit in int32. Shared endpoints make every rate depend on the
        # right (sender, receiver) pair.
        n = 46_341
        top = n - 1
        paths = [[top - 1, top], [top], [top - 2, top, top - 1],
                 [top - 1], [7, top]]
        hops = np.array([len(path) for path in paths], dtype=np.int32)
        offsets = np.zeros(hops.size, dtype=np.int64)
        np.cumsum(hops[:-1], out=offsets[1:])
        kwargs = dict(
            n_nodes=n, chunk_bytes=4096.0, up_bytes_s=2.5e4,
            down_bytes_s=1e5, max_concurrent=cap, quantum_s=0.0,
            release_s=np.array([0.05, 0.05, 0.05, 0.06, 0.05]),
            hops=hops, offsets=offsets,
            nodes=np.array([x for path in paths for x in path],
                           dtype=np.int32),
            origins=np.array([top - 2, top, top - 2, 7, top - 1]),
        )
        expected = OracleWheel(**kwargs).run()
        assert np.array_equal(one_window(**kwargs).run(), expected)

    def test_refuses_runs_too_wide_for_its_words(self):
        with pytest.raises(SimulationError, match="64-bit words"):
            one_window(
                n_nodes=2**31, chunk_bytes=1000.0, up_bytes_s=1e5,
                down_bytes_s=1e5, max_concurrent=0, quantum_s=0.0,
                release_s=np.zeros(1), hops=np.ones(1, dtype=np.int32),
                offsets=np.zeros(1, dtype=np.int64),
                nodes=np.zeros(1, dtype=np.int32),
                origins=np.ones(1, dtype=np.int64),
            )

    @staticmethod
    def _against_oracle(monkeypatch, paths, origins, releases, *,
                        chunk_bytes=1000.0, up=0.0, cap=0, quantum=0.0):
        """Run both wheels on explicit request paths over 4 nodes.

        Asserts bit-identical completion times and returns them with
        the scheduler events each wheel fired (wheel, then oracle).
        """
        fired = []
        run_all = EventScheduler.run_all

        def counting(self, **options):
            fired.append(run_all(self, **options))
            return fired[-1]

        monkeypatch.setattr(EventScheduler, "run_all", counting)
        hops = np.array([len(path) for path in paths], dtype=np.int32)
        offsets = np.zeros(hops.size, dtype=np.int64)
        np.cumsum(hops[:-1], out=offsets[1:])

        def run(wheel_class):
            return wheel_class(
                n_nodes=4, chunk_bytes=chunk_bytes, up_bytes_s=up,
                down_bytes_s=0.0, max_concurrent=cap, quantum_s=quantum,
                release_s=np.array(releases, dtype=np.float64),
                hops=hops, offsets=offsets,
                nodes=np.array([x for path in paths for x in path],
                               dtype=np.int32),
                origins=np.array(origins, dtype=np.int64),
            ).run()

        done = run(one_window)
        assert done.tobytes() == run(OracleWheel).tobytes()
        return done, fired

    @pytest.mark.parametrize("cap, chunk_bytes, expected", [
        (0, 1000.0, [0.02, 0.03]),
        (2, 1000.0, [0.02, 0.03]),
        # A chunk within the finish tolerance is done on the slot it
        # starts on, so it must be active before that slot completes.
        (0, 5e-7, [0.02, 0.02]),
    ])
    def test_release_settles_the_overshot_completion_due_with_it(
            self, monkeypatch, cap, chunk_bytes, expected):
        # Chunk 0's one hop takes 5 ms from its 10 ms release, so at
        # the 20 ms slot it has overshot (remaining < 0), and chunk 1
        # is released on that slot. One step settles both: neither the
        # stale slot nor a second completion at 20 ms is left to fire.
        done, (fired, oracle_fired) = self._against_oracle(
            monkeypatch, [[1], [2]], [0, 0], [0.01, 0.02],
            chunk_bytes=chunk_bytes, up=2e5, cap=cap, quantum=0.01)
        assert done.tolist() == expected
        assert fired < oracle_fired

    @pytest.mark.parametrize("cap", [0, 2])
    def test_release_leaves_a_bundle_within_tolerance_to_its_slot(
            self, monkeypatch, cap):
        # At chunk 1's release chunk 0 has a few bytes left, within
        # the finish tolerance but above 0: its ratio is positive, so
        # the slot the release schedules is the next one, 30 ms, and
        # chunk 0 completes there, not on the release's instant.
        chunk_bytes = 1000.0000005
        assert 0 < chunk_bytes - 1e5 * (0.02 - 0.01) <= _EPS_BYTES
        done, _ = self._against_oracle(
            monkeypatch, [[1], [2]], [0, 0], [0.01, 0.02],
            chunk_bytes=chunk_bytes, up=1e5, cap=cap, quantum=0.01)
        assert done.tolist() == [0.03, 0.03]

    @pytest.mark.parametrize("releases, quantum, expected", [
        ((0.05, 0.05, 0.06, 0.05, 0.05), 0.0,
         [0.05, 0.05, 0.06, 0.05, 0.05]),
        # 330000.1 snaps up to 330000.11 (float rounding), so its first
        # completion round waits for that slot.
        ((330000.1, 330000.1, 330000.1, 330000.5, 330000.1), 0.01,
         [330000.11, 330000.11, 330000.11, 330000.5, 330000.11]),
        # At a zero instant the next slot comes back as +0.0.
        ((-0.0, -0.0, 0.01, 0.02, -0.0), 0.0, [0.0, 0.0, 0.01, 0.02, 0.0]),
    ], ids=["plain", "unsnapped-slot", "negative-zero"])
    def test_capped_wheel_on_unbounded_links(self, monkeypatch, releases,
                                             quantum, expected):
        # Shared senders under cap 1: every transfer is due the
        # instant it starts, and the cap admits one per sender at a
        # time, so one instant takes several completion rounds. The
        # last chunk's one hop has a sender of its own, so it finishes
        # in the first round, which a release settles in its own step
        # only on an instant that is a nonzero slot boundary.
        paths = [[1, 2], [2], [1, 3, 2], [2, 1], [3]]
        done, (fired, oracle_fired) = self._against_oracle(
            monkeypatch, paths, [0, 0, 3, 3, 0], releases, cap=1,
            quantum=quantum)
        assert done.tolist() == expected
        assert fired < oracle_fired

    @pytest.mark.parametrize("t", [0.0, 1e-16, 0.3, 0.6000000000000001,
                                   2.4, 7.77, 3.3e5])
    @pytest.mark.parametrize("quantum", [0.3, 0.01])
    def test_slot_snap_matches_the_release_snap(self, t, quantum):
        # Completion slots snap one float at a time, release times as a
        # vector; both must round to the same bits, sign of zero too.
        vector = np.ceil(np.array([t]) / quantum - 1e-12) * quantum
        assert np.array([_snap_up(t, quantum)]).tobytes() == vector.tobytes()


class TestContendedLatencyPins:
    """Exact contended latencies, pinned before the bundle-pool wheel.

    Recorded from the per-transfer wheel (now
    ``tests/backends/wheel_oracle.py``): any change to event order or
    to a transfer's float arithmetic moves these digests.
    """

    @pytest.mark.parametrize("cap, samples, digest", [
        (0, 10338, "73aecea133f42f8296eaffa0e55ece7c"
                   "2618479a6318dcb2552488bca0aea5c4"),
        (2, 10338, "74a197be9cd3fa14c184c20b3973f64c"
                   "b6457687e6aec0ca5780da2780915ff7"),
    ], ids=["uncapped", "capped"])
    def test_latency_digest(self, cap, samples, digest):
        from repro.perf.bench import LATENCY_PROFILE

        config = FastSimulationConfig(
            n_nodes=60, n_files=16, workload_seed=11, arrival_seed=12,
            max_concurrent=cap, **LATENCY_PROFILE,
        )
        latency = TimedSimulation(config).run().latency_ms
        assert latency.size == samples
        assert hashlib.sha256(latency.tobytes()).hexdigest() == digest

    def test_latency_digest_with_unroutable_chunks(self):
        # Churn leaves unavailable chunks (hop 0, no path) between
        # routed ones, so a chunk's transfers are not at its chunk
        # index. Recorded before the wheel named transfers by path
        # position.
        from repro.perf.bench import LATENCY_PROFILE

        config = FastSimulationConfig(
            n_nodes=60, n_files=64, batch_files=16,
            scenario="churn:rate=0.2,seed=3", workload_seed=11,
            arrival_seed=12, **LATENCY_PROFILE,
        )
        result = TimedSimulation(config).run()
        assert result.unavailable == 11866
        assert result.latency_ms.size == 18965
        assert hashlib.sha256(result.latency_ms.tobytes()).hexdigest() == (
            "002023d2048a69b08567013e48b21793"
            "3de62918e8a88553dabef8270c16c5d0")


class TestPaths:
    @staticmethod
    def _record(config: FastSimulationConfig):
        """Route *config*'s workload through a recording session."""
        from repro.backends.fast import StreamSession
        from repro.backends.timed import _PathRecorder

        fast = TimedSimulation(config)._fast
        file_origins, sizes, targets = fast._flatten_workload(
            config.workload()
        )
        origins = np.repeat(file_origins, sizes)
        recorder = _PathRecorder(int(targets.size))
        with StreamSession(fast, recorder=recorder) as session:
            result = session.feed(
                origins, targets,
                ids=np.arange(targets.size, dtype=np.int64),
            )
        return fast.table, origins, targets, result, recorder.assemble()

    def test_recorded_paths_are_consistent(self):
        _, _, _, result, paths = self._record(GOLDEN_CONFIG)
        timed = get_backend("time").prepare(GOLDEN_CONFIG).run()
        assert result.total_hops == timed.total_hops
        # Total recorded path length equals total network hops.
        assert int(paths.hops.sum()) == result.total_hops
        assert paths.zero_ids.size == result.local_hits
        # Every recorded node index is a valid dense node.
        assert paths.nodes.min() >= 0
        assert paths.nodes.max() < GOLDEN_CONFIG.n_nodes
        # Routed + local = retrieved.
        assert (np.count_nonzero(paths.hops) + paths.zero_ids.size
                == result.chunks - result.unavailable)

    def test_recorded_paths_are_walks_the_table_allows(self):
        """Each path starts at the origin, follows the table, ends at
        the storer.

        Every node is ``next_hop[prev, target]``, or ``storer[target]``
        where that entry is the sentinel (greedy stall), and the walk
        stops exactly when it reaches ``storer[target]``.
        """
        table, origins, targets, _, paths = self._record(GOLDEN_CONFIG)
        routed = np.flatnonzero(paths.hops)
        assert routed.size
        # The raw matrix of the independent builder, not a decode of
        # the coded matrix the kernel routed through.
        next_hop = table_oracle.NextHopTable(
            table.overlay).next_hop.astype(np.int64)
        storer = table.storer.astype(np.int64)[targets[routed]]
        target = targets[routed].astype(np.int64)
        prev = origins[routed].astype(np.int64)
        hops = paths.hops[routed]
        offsets = paths.offsets[routed]
        for depth in range(int(hops.max())):
            walking = np.flatnonzero(hops > depth)
            node = paths.nodes[offsets[walking] + depth]
            step = next_hop[prev[walking], target[walking]]
            expected = np.where(step == table.sentinel, storer[walking],
                                step)
            assert np.array_equal(node, expected), depth
            assert np.array_equal(node == storer[walking],
                                  hops[walking] == depth + 1), depth
            prev[walking] = node
