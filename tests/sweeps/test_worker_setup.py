"""Sweep pool workers are set up for their share of the host.

Every pool a :class:`ProcessExecutor` starts, a rebuilt one included,
runs :func:`~repro.sweeps.worker.set_up_worker` in each worker: the
worker routes on ``max(1, cpus // workers)`` CPUs and keeps slab
temporaries on its heap instead of mapping them afresh for every
point, and it exits once its parent is gone. The parent process and
the serial executor keep the full budget.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.backends import fast
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import cached_overlay, clear_caches
from repro.perf.shared import SharedTableRegistry
from repro.perf.table_cache import global_table_cache
from repro.sweeps import ProcessExecutor, SerialExecutor, SweepSpec
from repro.sweeps.chaos import FAULT_PLAN_ENV
from repro.sweeps.executors import table_topologies
from repro.sweeps.worker import _mallopt, execute_point, point_payload

from .test_fault_recovery import write_plan

TINY = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6,
)
#: Four points per pool: every worker of a two-worker pool is used.
SPEC = SweepSpec(base=TINY, grid={"bucket_size": (4, 8)},
                 backends=("fast",), seeds=2)


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


def _full_budget() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


class ProbingExecutor(ProcessExecutor):
    """Asks one worker of every pool it starts for its CPU budget."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.budgets: list[int] = []

    def _new_pool(self, workers):
        pool = super()._new_pool(workers)
        self.budgets.append(pool.submit(fast._cpu_budget).result())
        return pool


def _run(jobs: int) -> ProbingExecutor:
    """Run SPEC on a probing pool of *jobs* workers (warnings: more
    jobs than CPUs, a rebuilt pool)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        executor = ProbingExecutor(jobs)
        assert len(executor.run(SPEC.base, SPEC.points())) == len(SPEC)
    return executor


class TestCpuShare:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_pool_worker_routes_on_its_share(self, jobs):
        # The executor allows one-worker pools below make_executor.
        executor = _run(jobs)
        assert executor.budgets == [max(1, _full_budget() // jobs)]

    def test_rebuilt_pool_worker_routes_on_its_share(
            self, tmp_path, monkeypatch):
        plan = write_plan(tmp_path, [
            {"point_id": "fast|bucket_size=4|r0", "attempt": 0,
             "kind": "crash"},
        ])
        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan))
        executor = _run(2)
        assert len(executor.budgets) == 2  # the first pool and its rebuild
        assert executor.budgets == [max(1, _full_budget() // 2)] * 2

    def test_parent_and_serial_executor_keep_the_full_budget(self):
        _run(2)
        assert fast._cpu_budget() == _full_budget()
        budgets = []
        spans = fast._target_spans

        def recording(targets, bits):
            budgets.append(fast._cpu_budget())
            return spans(targets, bits)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fast, "_target_spans", recording)
            SerialExecutor().run(SPEC.base, SPEC.points())
        assert budgets and set(budgets) == {_full_budget()}


def _faults_per_point(base: dict, payload: dict, handles: dict,
                      repeats: int) -> float:
    """Minor page faults of each of *repeats* runs after the first."""
    execute_point(base, payload, handles)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        execute_point(base, payload, handles)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return (after - before) / repeats


@pytest.mark.skipif(_mallopt() is None,
                    reason="the C library has no mallopt")
def test_worker_points_take_almost_no_page_faults():
    # ~88k chunks a point: its slab temporaries are hundreds of KiB,
    # above glibc's initial 128 KiB mmap threshold. Without the set-up
    # a worker that attached its table takes ~1,050 minor faults a
    # point here (2-vCPU host); with it, none or one.
    spec = SweepSpec(base=FastSimulationConfig(n_nodes=120, bits=12,
                                               n_files=160),
                     grid={"bucket_size": (4,)}, backends=("fast",),
                     seeds=1)
    registry = SharedTableRegistry()
    handles = {}
    for config in table_topologies(spec.base, spec.points()):
        handle = registry.acquire(
            global_table_cache().get(cached_overlay(config)))
        handles[handle.fingerprint] = handle.to_payload()
    pool = ProcessExecutor(2)._new_pool(2)
    try:
        faults = pool.submit(
            _faults_per_point, dataclasses.asdict(spec.base),
            point_payload(spec.points()[0]), handles, 3,
        ).result()
    finally:
        pool.shutdown(wait=True)
        for fingerprint in handles:
            registry.release(fingerprint)
    assert faults < 100


#: A host that starts a two-worker pool, prints the worker pids and
#: waits to be killed.
_HOST = """
import os, time
from repro.sweeps.executors import ProcessExecutor

pool = ProcessExecutor(2)._new_pool(2)
for future in [pool.submit(os.getpid) for _ in range(2)]:
    future.result()
print(*pool._processes, flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether *pid* runs; an unreaped zombie counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_pool_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else [])
    )
    host = subprocess.Popen([sys.executable, "-c", _HOST], env=env,
                            stdout=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in host.stdout.readline().split()]
        assert pids
        host.kill()
        host.wait()
        deadline = time.monotonic() + 20.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)]
    finally:
        host.kill()
        host.wait()
        host.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
