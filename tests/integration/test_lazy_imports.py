"""Entry points import only what they run; lazy package exports.

The import-graph checks run in fresh interpreters (this test process
has long since imported everything) and pin which modules a cold
start must *not* load: a sweep worker never loads the HTTP queue, the
distributed executor, the aggregation layer or the backends it does
not run; building a fast simulation never loads the sweep engine; the
benchmark gate never loads the sweep store or the kernel; the serve
daemon never loads the plotting module.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

LAZY_PACKAGES = ("repro.analysis", "repro.backends", "repro.core",
                 "repro.kademlia", "repro.perf", "repro.sweeps",
                 "repro.workloads")


def loaded_after(code: str, watched: list[str]) -> list[str]:
    """Which of *watched* are in ``sys.modules`` after running *code*."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=SRC,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportGraph:
    def test_warm_sweep_worker_loads_no_http_or_unused_backends(self):
        watched = [
            "repro.sweeps.distributed", "repro.sweeps.queue_daemon",
            "repro.sweeps.aggregate", "repro.analysis",
            "repro.backends.timed", "repro.backends.reference",
            "repro.backends.baselines", "http.server", "urllib.request",
        ]
        code = "import repro.sweeps.worker as w\nw.warm_up()"
        assert loaded_after(code, watched) == []

    def test_fast_simulation_loads_no_sweep_engine(self):
        watched = ["repro.sweeps", "repro.perf.bench", "repro.analysis",
                   "http.client"]
        code = ("from repro.backends import FastSimulation, "
                "FastSimulationConfig\n"
                "FastSimulation(FastSimulationConfig(n_nodes=60))")
        assert loaded_after(code, watched) == []

    def test_cli_loads_no_experiments_or_sweep_engine(self):
        # A spawned sweep worker re-runs the console script's
        # ``from repro.cli import main`` before its first task.
        watched = ["repro.experiments", "repro.experiments.registry",
                   "repro.sweeps.engine", "repro.swarm", "repro.analysis"]
        assert loaded_after("import repro.cli", watched) == []

    def test_bench_gate_loads_no_sweep_store_or_kernel(self):
        # perfbench's latency-contended set-up imports LATENCY_PROFILE
        # from here; the gate itself only reads logs and JSON.
        watched = ["repro.sweeps", "repro.perf.shared",
                   "repro.perf.table_cache", "repro.backends.fast"]
        assert loaded_after("import repro.perf.bench", watched) == []

    def test_serve_loads_no_plots(self):
        assert loaded_after("import repro.serve",
                            ["repro.analysis.plots"]) == []

    def test_time_backend_resolves_by_name_alone(self):
        code = ("import repro.backends as b\n"
                "assert type(b.get_backend('time')).__name__ "
                "== 'TimeBackend'")
        assert loaded_after(code, ["repro.backends.timed"]) == [
            "repro.backends.timed"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_public_name_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for attr in package.__all__:
            assert getattr(package, attr) is not None
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= namespace.keys()

    def test_dir_lists_public_names(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")


def test_histogram_name_stays_the_function_after_submodule_import():
    code = ("import repro.analysis.histogram\n"
            "from repro.analysis import histogram\n"
            "assert callable(histogram)")
    assert loaded_after(code, []) == []
