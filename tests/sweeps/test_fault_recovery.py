"""End-to-end fault recovery, driven by the chaos harness.

The load-bearing acceptance property: a sweep that suffered injected
faults — worker exceptions, hard crashes (``os._exit``), SIGKILLed
workers, hung points tripping the watchdog — and recovered within its
retry budget writes a store **byte-identical** to a fault-free serial
run. Everything else here exercises the edges around that property:
quarantine after budget exhaustion, fail-fast, resume-after-
quarantine, and graceful SIGTERM shutdown with no shared-memory
leaks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.backends.config import FastSimulationConfig
from repro.errors import SweepExecutionError
from repro.sweeps import SweepSpec, SweepStore, run_sweep

#: Same tiny-but-multi-hop scale the determinism suite pins.
TINY = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(base=TINY, grid={"bucket_size": (4, 8)},
                    backends=("fast",), seeds=2)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def write_plan(tmp_path, faults) -> Path:
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": faults}))
    return path


def run_quiet(*args, **kwargs):
    """run_sweep with recovery/oversubscription warnings swallowed.

    Pool rebuilds and ``--jobs 2`` on small CI machines both warn by
    design; these tests assert on results and stores, not warnings.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(*args, **kwargs)


class TestSerialRecovery:
    def test_transient_exception_retried_to_success(self, tmp_path):
        spec = tiny_spec()
        target = spec.points()[0].point_id
        plan = write_plan(tmp_path, [
            {"point_id": target, "attempt": 0, "kind": "exception"},
        ])
        result = run_sweep(spec, jobs=1, fault_plan=plan,
                           retry_backoff=0.0)
        assert result.executed == len(spec)
        assert result.failures == []

    def test_recovered_run_is_byte_identical_to_clean(self, tmp_path):
        spec = tiny_spec()
        clean = tmp_path / "clean.json"
        run_sweep(spec, jobs=1, store_path=clean)
        plan = write_plan(tmp_path, [
            {"point_id": spec.points()[1].point_id, "attempt": 0,
             "kind": "exception"},
            {"point_id": spec.points()[2].point_id, "attempt": 0,
             "kind": "exception"},
            {"point_id": spec.points()[2].point_id, "attempt": 1,
             "kind": "exception"},
        ])
        faulted = tmp_path / "faulted.json"
        run_sweep(spec, jobs=1, store_path=faulted, fault_plan=plan,
                  retry_backoff=0.0)
        assert clean.read_bytes() == faulted.read_bytes()

    def test_exhausted_point_is_quarantined(self, tmp_path):
        spec = tiny_spec()
        target = spec.points()[0].point_id
        plan = write_plan(tmp_path, [
            {"point_id": target, "attempt": a, "kind": "exception",
             "message": "poison"} for a in range(3)
        ])
        store_path = tmp_path / "sweep.json"
        result = run_sweep(spec, jobs=1, store_path=store_path,
                           fault_plan=plan, max_retries=2,
                           retry_backoff=0.0)
        assert result.executed == len(spec) - 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.point_id == target
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert "poison" in failure.error

        document = json.loads(store_path.read_text())
        assert set(document["failures"]) == {target}
        record = document["failures"][target]
        assert record["kind"] == "exception"
        assert record["attempts"] == 3
        # The healthy points are all recorded alongside.
        assert len(document["points"]) == len(spec) - 1

    def test_fail_fast_aborts_on_first_exhausted_point(self, tmp_path):
        spec = tiny_spec()
        plan = write_plan(tmp_path, [
            {"point_id": spec.points()[0].point_id, "attempt": a,
             "kind": "exception"} for a in range(2)
        ])
        with pytest.raises(SweepExecutionError, match="fail-fast"):
            run_sweep(spec, jobs=1, fault_plan=plan, max_retries=1,
                      retry_backoff=0.0, keep_going=False)

    def test_quarantined_point_retries_on_resume(self, tmp_path):
        spec = tiny_spec()
        target = spec.points()[0].point_id
        plan = write_plan(tmp_path, [
            {"point_id": target, "attempt": a, "kind": "exception"}
            for a in range(3)
        ])
        store_path = tmp_path / "sweep.json"
        run_sweep(spec, jobs=1, store_path=store_path, fault_plan=plan,
                  retry_backoff=0.0)
        assert json.loads(store_path.read_text())["failures"]

        # Fault gone (fixed environment): the resume re-runs exactly
        # the quarantined point and clears its failure record...
        resumed = run_sweep(spec, jobs=1, store_path=store_path)
        assert resumed.executed == 1
        assert resumed.failures == []
        # ...leaving the store byte-identical to a never-faulted run.
        clean = tmp_path / "clean.json"
        run_sweep(spec, jobs=1, store_path=clean)
        assert store_path.read_bytes() == clean.read_bytes()


class TestProcessRecovery:
    def test_crash_kill_hang_exception_all_recover_byte_identical(
            self, tmp_path):
        # The acceptance oracle, with every fault kind at once: one
        # worker raises, one hard-exits, one is SIGKILLed mid-sweep,
        # one hangs until the watchdog recycles it — and the final
        # store is byte-for-byte the fault-free serial store.
        spec = tiny_spec()
        ids = [point.point_id for point in spec.points()]
        clean = tmp_path / "clean.json"
        run_sweep(spec, jobs=1, store_path=clean)
        plan = write_plan(tmp_path, [
            {"point_id": ids[0], "attempt": 0, "kind": "exception"},
            {"point_id": ids[1], "attempt": 0, "kind": "crash"},
            {"point_id": ids[2], "attempt": 0, "kind": "kill"},
            {"point_id": ids[3], "attempt": 0, "kind": "hang",
             "seconds": 60.0},
        ])
        faulted = tmp_path / "faulted.json"
        result = run_quiet(spec, jobs=2, store_path=faulted,
                           fault_plan=plan, point_timeout=10.0,
                           retry_backoff=0.0)
        assert result.executed == len(spec)
        assert result.failures == []
        assert clean.read_bytes() == faulted.read_bytes()

    def test_quarantined_store_matches_serial_byte_for_byte(
            self, tmp_path):
        # A poisoned point fails on every attempt: its quarantine
        # record — digest included — must not depend on whether the
        # exception was raised in-process or pickled back from a pool
        # worker with the remote traceback attached.
        spec = tiny_spec()
        plan = write_plan(tmp_path, [
            {"point_id": spec.points()[0].point_id, "attempt": a,
             "kind": "exception", "message": "poison"} for a in range(3)
        ])
        stores = []
        for jobs in (1, 2):
            store_path = tmp_path / f"jobs-{jobs}.json"
            result = run_quiet(spec, jobs=jobs, store_path=store_path,
                               fault_plan=plan, max_retries=2,
                               retry_backoff=0.0)
            assert [f.attempts for f in result.failures] == [3]
            stores.append(store_path.read_bytes())
        assert stores[0] == stores[1]

    def test_hung_point_exhausts_budget_and_quarantines(self, tmp_path):
        # A point that hangs on *every* attempt trips the watchdog
        # each time and ends up quarantined as a timeout; the healthy
        # point of the sweep still completes.
        spec = tiny_spec(grid={"bucket_size": (4,)}, seeds=2)
        hung_id = spec.points()[0].point_id
        plan = write_plan(tmp_path, [
            {"point_id": hung_id, "attempt": a, "kind": "hang",
             "seconds": 60.0} for a in range(2)
        ])
        store_path = tmp_path / "sweep.json"
        result = run_quiet(spec, jobs=2, store_path=store_path,
                           fault_plan=plan, point_timeout=3.0,
                           max_retries=1, retry_backoff=0.0)
        assert result.executed == len(spec) - 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.point_id == hung_id
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        record = json.loads(store_path.read_text())["failures"][hung_id]
        assert record["kind"] == "timeout"


SIGTERM_DRIVER = """
import faulthandler, signal, sys
# SIGUSR1 dumps every thread's stack: the test's view into a stuck run.
faulthandler.register(signal.SIGUSR1, all_threads=True)
from repro.cli import main
sys.exit(main([
    "sweep", "--grid", "bucket_size=4", "--seeds", "12",
    "--nodes", "60", "--files", "8", "--jobs", "2",
    "--store", sys.argv[1], "--fault-plan", sys.argv[2],
]))
"""


class TestGracefulShutdown:
    def test_sigterm_leaves_resumable_store_and_no_shm_leak(
            self, tmp_path):
        store_path = tmp_path / "sweep.json"
        # Hang the first point forever (no --point-timeout): healthy
        # points stream into the store while the sweep provably cannot
        # finish, so the SIGTERM below always lands mid-run — no race
        # against a fast machine completing the sweep first.
        plan = write_plan(tmp_path, [
            {"point_id": "fast|bucket_size=4|r0", "attempt": 0,
             "kind": "hang", "seconds": 600.0},
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[2] / "src"),
                          os.environ.get("PYTHONPATH")])
        ))
        child = subprocess.Popen(
            [sys.executable, "-u", "-c", SIGTERM_DRIVER,
             str(store_path), str(plan)],
            env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # Wait until at least one point is durably recorded, so
            # the signal provably lands mid-sweep.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if store_path.exists():
                    try:
                        if SweepStore.load(store_path).points:
                            break
                    except Exception:
                        pass
                if child.poll() is not None:
                    pytest.fail(
                        "sweep finished before SIGTERM could land:\n"
                        + child.communicate()[0]
                    )
                time.sleep(0.1)
            else:
                pytest.fail("no point completed within 120s")
            child.send_signal(signal.SIGTERM)
            try:
                output, _ = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.send_signal(signal.SIGUSR1)
                time.sleep(2.0)
                child.kill()
                pytest.fail("sweep still running 60s after SIGTERM; its "
                            "threads:\n" + child.communicate()[0])
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()

        assert child.returncode == 128 + signal.SIGTERM, output
        assert "interrupted by SIGTERM" in output

        # The store is loadable and holds only complete records...
        store = SweepStore.load(store_path)
        assert store.points
        for record in store.points.values():
            assert record["metrics"]["chunks"] > 0
        # ...and a resume finishes the sweep from where it stopped.
        spec = store.spec
        resumed = run_sweep(spec, jobs=1, store_path=store_path)
        assert resumed.resumed == len(store.points)
        assert resumed.executed == len(spec) - len(store.points)

        # Graceful shutdown released every published segment: nothing
        # named for the dead child's pid survives in /dev/shm.
        shm = Path("/dev/shm")
        if shm.is_dir():
            leaked = [entry.name for entry in shm.iterdir()
                      if entry.name.startswith(f"repro_{child.pid}_")]
            assert leaked == []
