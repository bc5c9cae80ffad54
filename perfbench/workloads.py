"""The benchmark's four workloads, their metrics and their output checks.

Every workload is closed-loop with a single client: one pass starts
only when the previous one has returned. Inputs are derived from the
benchmark's ``--seed`` alone; the program only ever sees the generated
configs and request files. The overlay itself stays the paper's
(overlay seed 42) so set-up does the same work on every seed and the
seed varies what is requested, not the network that serves it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from tracing import Tracer

#: The seed the benchmark is developed and tuned on.
DEFAULT_SEED = 1
#: Kept out of development: later performance claims are validated on it.
HELD_OUT_SEED = 9001

PINS_PATH = Path(__file__).with_name("pins.json")

#: The benchmark's declaration: workloads with their rationale, and
#: every metric's name, unit and better direction. Every workload
#: reports every end-to-end metric. A "batch" is what the single
#: client hands over and waits for: one micro-batch of request lines on
#: serve-gateway, one whole pass (run, or sweep) on the other
#: workloads, where both latency percentiles therefore read the median
#: pass time.
SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: Per-layer metric -> (end-to-end metric it should move, workload it
#: moves it on). Layers that do not run on a workload read zero there.
LAYER_TARGETS = {
    "kademlia.overlay_build_s": ("setup_s", "all"),
    "fast.table_build_s": ("setup_s", "all"),
    "fast.table_encode_s": ("setup_s", "all"),
    "perf.table_publish_s": ("points_per_s", "sweep-grid"),
    "perf.table_attach_s": ("points_per_s", "sweep-grid"),
    "fast.prepare_s": ("chunks_per_s", "paper-churn"),
    "fast.flatten_s": ("requests_per_s", "serve-gateway"),
    "fast.feed_s": ("chunks_per_s", "paper-churn"),
    "fast.feed_calls": ("chunks_per_s", "paper-churn"),
    "fast.chunks_routed": ("chunks_per_s", "paper-churn"),
    "fast.hops_per_chunk": ("chunks_per_s", "paper-churn"),
    "fast.delivered_ratio": ("chunks_per_s", "paper-churn"),
    "scenarios.plan_s": ("chunks_per_s", "paper-churn"),
    "scenarios.epoch_s": ("chunks_per_s", "paper-churn"),
    "scenarios.epochs": ("chunks_per_s", "paper-churn"),
    "timed.record_s": ("chunks_per_s", "latency-contended"),
    "timed.wheel_s": ("chunks_per_s", "latency-contended"),
    "timed.wheel_events": ("chunks_per_s", "latency-contended"),
    "timed.transfers": ("chunks_per_s", "latency-contended"),
    "streams.parse_s": ("requests_per_s", "serve-gateway"),
    "streams.lines": ("requests_per_s", "serve-gateway"),
    "streams.bytes_in": ("requests_per_s", "serve-gateway"),
    "streaming.absorb_s": ("batch_latency_p50_ms", "serve-gateway"),
    "streaming.snapshot_s": ("batch_latency_p50_ms", "serve-gateway"),
    "serve.emit_s": ("batch_latency_p50_ms", "serve-gateway"),
    "serve.bytes_out": ("batch_latency_p50_ms", "serve-gateway"),
    "sweeps.point_exec_s": ("points_per_s", "sweep-grid"),
    "sweeps.serial_points_per_s": ("points_per_s", "sweep-grid"),
    "sweeps.store_save_s": ("points_per_s", "sweep-grid"),
    "sweeps.store_saves": ("points_per_s", "sweep-grid"),
    "sweeps.store_bytes_written": ("points_per_s", "sweep-grid"),
    "sweeps.first_result_s": ("points_per_s", "sweep-grid"),
    "sweeps.retries": ("points_per_s", "sweep-grid"),
    "trace.unattributed_s": ("-", "all"),
    "trace.overhead_ratio": ("-", "all"),
}

#: Layers timed once, in set-up (or the extra traced stage), not per pass.
#: Every other ``<span>_s`` metric is that span's self time per pass.
_SETUP_METRICS = ("kademlia.overlay_build_s", "fast.table_build_s",
                  "fast.table_encode_s", "perf.table_attach_s")


def derived_seeds(seed: int, workload: str, n: int) -> list[int]:
    """*n* independent 31-bit seeds for one workload, fixed by *seed*."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(x) >> 1 for x in sequence.generate_state(n)]


@dataclasses.dataclass
class Pass:
    """What one timed pass did, as the harness saw it from outside."""

    kind: str
    started: float
    wall_s: float = 0.0
    chunks: int = 0
    requests: int = 0
    points: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_s: list = dataclasses.field(default_factory=list)
    #: The host's slowdown around the pass (see ``hostspeed``).
    slowdown: float = 1.0
    output: dict | None = None
    counts: dict = dataclasses.field(default_factory=dict)
    trace: Tracer | None = None
    error: str | None = None


class Workload:
    """One workload: set-up, one timed pass, and the output checks."""

    name = ""
    #: Pass kinds a traced run cycles through ("plain" is untraced).
    trace_kinds: tuple[str, ...] = ("plain", "traced")
    #: Whether passes start worker processes (sampled for count and RSS).
    starts_workers = False
    #: Fresh processes an untraced run is measured in, one after another.
    #: More than one where the process (its memory layout, hash seed and
    #: CPU) sets the speed: the run reports the mean over processes.
    processes = 1
    #: Distinct inputs, derived from the seed, that passes take in turn.
    inputs = 1
    #: Parts of the calibration loop whose speed tracks this workload's
    #: (``hostspeed``); none leaves its times unscaled.
    host_parts: tuple[str, ...] = ("python", "numpy")
    #: Per-layer metrics read from passes of another kind than "traced".
    layer_kinds: dict[str, str] = {}
    scales: dict[str, dict] = {}

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.scales[scale]
        self.workdir = workdir
        self.tracer = Tracer()

    @property
    def why(self) -> str:
        return next(w["why"] for w in SPEC["workloads"]
                    if w["name"] == self.name)

    def setup(self) -> None:
        """Everything the first timed pass needs (this is ``setup_s``)."""
        raise NotImplementedError

    def prepare_inputs(self) -> None:
        """Generate the pass inputs (harness work, not timed)."""

    def run_pass(self, kind: str) -> Pass:
        raise NotImplementedError

    def reference(self) -> dict | None:
        """An independently produced output every pass must equal."""
        return None

    def invariants(self, output: dict) -> list[str]:
        return []

    def pinned(self, output: dict) -> dict:
        """The output fields pinned per seed in ``pins.json``."""
        return output

    def layer_stage(self) -> None:
        """Extra traced stage for layers no pass exercises."""

    def _encode(self, table) -> None:
        with self.tracer.span("fast.table_encode"):
            table.flat_coded

    # ------------------------------------------------------------------

    def check(self, passes: list[Pass], *, pins: bool = True) -> list[str]:
        problems = [f"pass {i} ({p.kind}) raised: {p.error}"
                    for i, p in enumerate(passes) if p.error]
        outputs = [p.output for p in passes if p.error is None]
        reference = self.reference()
        # Every pass must equal the reference, or else the first pass
        # that took the same input.
        expected: dict[int, dict] = {}
        for i, output in enumerate(outputs):
            want = expected.setdefault(
                output.get("input", 0),
                output if reference is None else reference)
            if output != want:
                problems.append(
                    f"pass {i} output differs from "
                    f"{'the reference' if reference else 'the first pass'}:"
                    f" {_diff(output, want)}")
        for output in expected.values():
            problems += self.invariants(output)
        if expected and pins:
            problems += self._check_pins(self.pins_for(expected))
        return problems

    def pins_for(self, outputs: dict[int, dict]) -> dict:
        """The pinned fields of the output of every input."""
        if self.inputs == 1:
            return self.pinned(outputs[0])
        return {f"{i}.{key}": value for i, output in sorted(outputs.items())
                for key, value in self.pinned(output).items()}

    def _check_pins(self, actual: dict) -> list[str]:
        if self.scale != "full" or not PINS_PATH.exists():
            return []
        pins = json.loads(PINS_PATH.read_text())
        pinned = pins.get(self.name, {}).get(str(self.seed))
        if pinned is None:
            return []
        problems = []
        for key, want in pinned.items():
            got = actual.get(key)
            same = (math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
                    if isinstance(want, float) and isinstance(got, float)
                    else got == want)
            if not same:
                problems.append(f"pinned {key} for seed {self.seed}: "
                                f"got {got!r}, pinned {want!r}")
        return problems

    # ------------------------------------------------------------------

    def layer_values(self, passes: list[Pass], setup: Tracer) -> dict:
        """Per-layer metrics: median over the traced passes of each kind."""
        by_kind: dict[str, list[dict]] = {}
        for p in passes:
            if p.trace is not None and p.error is None:
                by_kind.setdefault(p.kind, []).append(self._per_pass(p))
        values = {}
        for name in LAYER_TARGETS:
            kind = self.layer_kinds.get(name, "traced")
            samples = [v[name] for v in by_kind.get(kind, []) if name in v]
            values[name] = statistics.median(samples) if samples else 0.0
        for name in _SETUP_METRICS:
            values[name] = setup.self_s.get(name.removesuffix("_s"), 0.0)
        plain = [p.wall_s / p.slowdown for p in passes
                 if p.kind == "plain" and p.error is None]
        traced = [p.wall_s / p.slowdown for p in passes
                  if p.kind == "traced" and p.error is None]
        values["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else 0.0)
        return values

    def _per_pass(self, p: Pass) -> dict:
        trace = p.trace
        values = {f"{span}_s": seconds
                  for span, seconds in trace.self_s.items()}
        values.update(trace.counts)
        values.update(p.counts)
        routed = trace.counts.get("fast.chunks_routed", 0)
        delivered = routed - trace.counts.get("fast.unavailable", 0)
        values["fast.delivered_ratio"] = delivered / routed if routed else 0.0
        values["fast.hops_per_chunk"] = (
            trace.counts.get("fast.hops", 0) / delivered if delivered else 0.0)
        values["trace.unattributed_s"] = p.wall_s - trace.attributed_s()
        return values


def _diff(output, expected) -> str:
    if isinstance(output, dict) and isinstance(expected, dict):
        keys = [k for k in sorted(set(output) | set(expected))
                if output.get(k) != expected.get(k)]
        return ", ".join(f"{k}: {output.get(k)!r} != {expected.get(k)!r}"
                         for k in keys[:4])
    return f"{output!r} != {expected!r}"


class _SimulationRun(Workload):
    """A workload whose pass is one ``simulation.run()``: one batch.

    ``simulations`` holds one simulation per input; the warm-up pass
    runs the first, and measured passes take them in turn.
    """

    simulations: list = []
    _turn = 0

    def run_pass(self, kind: str) -> Pass:
        index = 0 if kind == "warm-up" else self._turn % self.inputs
        self._turn += kind != "warm-up"
        p = Pass(kind, time.perf_counter())
        result = self.simulations[index].run()
        p.wall_s = time.perf_counter() - p.started
        p.latencies_s.append(p.wall_s)
        p.chunks, p.requests = int(result.chunks), int(result.files)
        p.points = p.attempted = 1
        p.output = {"input": index, **self.output(result)}
        return p

    def output(self, result) -> dict:
        return {
            "files": int(result.files),
            "chunks": int(result.chunks),
            "total_hops": int(result.total_hops),
            "unavailable": int(result.unavailable),
            "f1_gini": float(result.f1_gini()),
            "f2_gini": float(result.f2_gini()),
        }


class PaperChurn(_SimulationRun):
    """The paper-scale reproduction under the paper's churn headline."""

    name = "paper-churn"
    # Whole-array numpy work: the loop's interpreter part tracks it
    # worse than not scaling at all.
    host_parts = ("numpy",)
    scales = {"full": {"n_nodes": 1000, "n_files": 10_000},
              "tiny": {"n_nodes": 60, "n_files": 300}}

    def setup(self) -> None:
        from repro.backends.config import FastSimulationConfig
        from repro.backends.fast import FastSimulation, StreamSession

        workload_seed, churn_seed = derived_seeds(self.seed, self.name, 2)
        self.config = FastSimulationConfig(
            **self.params, workload_seed=workload_seed,
            scenario=f"churn:rate=0.1,seed={churn_seed}")
        simulation = FastSimulation(self.config)
        self.simulations = [simulation]
        self._encode(simulation.table)
        # Derive every epoch's artifacts (storer table, coded patch) and
        # the writable working matrix by feeding empty epochs, so set-up
        # routes no chunk; later runs reuse both from the caches.
        epochs = self.config.n_epochs()
        none = np.empty(0, dtype=simulation.table.entry_dtype)
        with StreamSession(simulation, n_epochs=epochs) as session:
            for _ in range(epochs):
                session.feed(none, none)

    def invariants(self, output: dict) -> list[str]:
        problems = []
        if output["files"] != self.config.n_files:
            problems.append(f"files {output['files']} != "
                            f"{self.config.n_files}")
        if not 0 < output["unavailable"] < output["chunks"]:
            problems.append("churn left no chunk (or every chunk) "
                            "unavailable")
        if not (0 <= output["f1_gini"] <= 1 and 0 <= output["f2_gini"] <= 1):
            problems.append("a Gini coefficient is outside [0, 1]")
        return problems


class LatencyContended(_SimulationRun):
    """The time-domain backend under contended fair-share bandwidth."""

    name = "latency-contended"
    # The wheel's many small array operations run about 10% faster or
    # slower from one process to the next; set-up is short enough to
    # measure in three.
    processes = 3
    # A pass's time depends on its input too (a seed with more chunks
    # per file backs the wheel up more), so passes take three inputs in
    # turn rather than one.
    inputs = 3
    scales = {"full": {"n_nodes": 300, "n_files": 400},
              "tiny": {"n_nodes": 60, "n_files": 60}}

    def setup(self) -> None:
        from repro.backends.config import FastSimulationConfig
        from repro.backends.timed import TimedSimulation
        from repro.perf.bench import LATENCY_PROFILE

        seeds = derived_seeds(self.seed, self.name, 2 * self.inputs)
        self.simulations = [
            TimedSimulation(FastSimulationConfig(
                **self.params, workload_seed=workload_seed,
                arrival_seed=arrival_seed, **LATENCY_PROFILE))
            for workload_seed, arrival_seed in zip(seeds[::2], seeds[1::2])]
        self._encode(self.simulations[0].table)

    def output(self, result) -> dict:
        latency = np.asarray(result.latency_ms, dtype=np.float64)
        return {
            **super().output(result),
            "latency_samples": int(latency.size),
            "latency_finite": bool(np.isfinite(latency).all()
                                   and (latency >= 0).all()),
            "latency_sha256": hashlib.sha256(
                np.round(latency, 6).tobytes()).hexdigest(),
        }

    def invariants(self, output: dict) -> list[str]:
        problems = []
        if output["latency_samples"] != (output["chunks"]
                                         - output["unavailable"]):
            problems.append("latency samples do not cover every "
                            "retrieved chunk")
        if not output["latency_finite"]:
            problems.append("a latency sample is negative or not finite")
        return problems


class _Sink:
    """The serve output file, timestamping each flushed line.

    Timestamps are wall-clock, so a batch's latency includes every
    wait the daemon makes on its way to the snapshot line: I/O, lock
    and queue waits, and time the host gives to other processes.
    """

    def __init__(self, handle) -> None:
        self.handle = handle
        self.flushed: list[float] = []
        self.bytes = 0
        self.last = ""

    def write(self, text: str) -> int:
        self.bytes += len(text)
        self.last = text
        return self.handle.write(text)

    def flush(self) -> None:
        self.handle.flush()
        self.flushed.append(time.perf_counter())


def _stamped(lines, every: int, stamps: list):
    """Yield *lines*, timestamping the pull of every *every*-th line."""
    from itertools import islice

    while True:
        stamps.append(time.perf_counter())
        emitted = False
        for line in islice(lines, every):
            emitted = True
            yield line
        if not emitted:
            stamps.pop()
            return


class ServeGateway(Workload):
    """The serve daemon from NDJSON bytes in to snapshot lines out."""

    name = "serve-gateway"
    # On a shared host, parsing runs up to 50% faster or slower from
    # one process to the next: measured in three.
    processes = 3
    scales = {"full": {"n_nodes": 1000, "lines": 50_000},
              "tiny": {"n_nodes": 60, "lines": 3000}}
    #: The serve CLI defaults.
    max_batch = 256

    def setup(self) -> None:
        from repro.backends.config import FastSimulationConfig
        from repro.backends.fast import FastSimulation

        self.config = FastSimulationConfig(n_nodes=self.params["n_nodes"])
        simulation = FastSimulation(self.config)
        self._encode(simulation.table)
        self.addresses = simulation.overlay.address_array()
        self.space_size = simulation.space.size

    def prepare_inputs(self) -> None:
        (seed,) = derived_seeds(self.seed, self.name, 1)
        rng = np.random.default_rng(seed)
        n = self.params["lines"]
        origins = self.addresses[
            rng.integers(0, len(self.addresses), n)].tolist()
        sizes = rng.integers(2, 7, n)
        targets = rng.integers(0, self.space_size, int(sizes.sum())).tolist()
        ends = np.cumsum(sizes).tolist()
        self.path = self.workdir / "requests.ndjson"
        start = 0
        with open(self.path, "w", encoding="utf-8") as handle:
            for origin, end in zip(origins, ends):
                chunks = ", ".join(map(str, targets[start:end]))
                handle.write(f'{{"originator": {origin}, '
                             f'"chunks": [{chunks}]}}\n')
                start = end
        self.lines = n
        self.chunks = int(sizes.sum())
        self.bytes_in = os.path.getsize(self.path)

    def _serve(self, *, batch_mode: bool, stamps: list | None = None):
        from repro.serve import run_serve

        out_path = self.workdir / "responses.ndjson"
        with open(self.path, encoding="utf-8") as source, \
                open(out_path, "w", encoding="utf-8") as out:
            sink = _Sink(out)
            lines = source if stamps is None else _stamped(
                source, self.max_batch, stamps)
            aggregator = run_serve(self.config, lines, sink,
                                   batch_mode=batch_mode)
        return aggregator, sink

    def run_pass(self, kind: str) -> Pass:
        stamps: list[float] = []
        p = Pass(kind, time.perf_counter())
        aggregator, sink = self._serve(batch_mode=False, stamps=stamps)
        p.wall_s = time.perf_counter() - p.started
        snapshots = sink.flushed[:-1]  # the last flush is the final line
        p.latencies_s = [done - pulled
                         for pulled, done in zip(stamps, snapshots)]
        p.chunks, p.requests, p.points = int(aggregator.chunks), int(
            aggregator.files), 1
        p.attempted = self.lines
        p.failed = self.lines - int(aggregator.files)
        p.counts = {"streams.bytes_in": self.bytes_in,
                    "serve.bytes_out": sink.bytes}
        p.output = {"final": sink.last, "batches": len(stamps),
                    "snapshots": len(snapshots)}
        return p

    def reference(self) -> dict:
        _, sink = self._serve(batch_mode=True)
        batches = -(-self.lines // self.max_batch)
        return {"final": sink.last, "batches": batches,
                "snapshots": batches}

    def invariants(self, output: dict) -> list[str]:
        final = json.loads(output["final"])
        problems = []
        if final.get("type") != "final":
            problems.append("the last output line is not the final line")
        if final.get("files") != self.lines:
            problems.append(f"final files {final.get('files')} != "
                            f"{self.lines} request lines")
        if final.get("chunks") != self.chunks:
            problems.append(f"final chunks {final.get('chunks')} != "
                            f"{self.chunks} requested")
        return problems

    def pinned(self, output: dict) -> dict:
        return {"final_sha256":
                hashlib.sha256(output["final"].encode()).hexdigest()}


class SweepGrid(Workload):
    """A replicated parameter sweep through the process-pool engine."""

    name = "sweep-grid"
    scales = {"full": {"n_nodes": 300, "n_files": 500,
                       "bucket_size": (2, 4, 8, 16), "seeds": 16},
              "tiny": {"n_nodes": 60, "n_files": 40,
                       "bucket_size": (2, 4), "seeds": 2}}
    trace_kinds = ("plain", "traced", "serial")
    starts_workers = True
    # The pool works on both CPUs while this process waits: a loop
    # timed here does not track it, and scaling by it doubles the
    # spread of points_per_s.
    host_parts = ()
    layer_kinds = {name: "serial" for name in (
        "fast.prepare_s", "fast.feed_s", "fast.feed_calls",
        "fast.chunks_routed", "fast.hops_per_chunk",
        "fast.delivered_ratio", "sweeps.point_exec_s",
        "sweeps.serial_points_per_s")}

    def setup(self) -> None:
        from repro.backends.config import FastSimulationConfig
        from repro.backends.fast import cached_overlay
        from repro.perf.table_cache import global_table_cache
        from repro.sweeps import SweepSpec, table_topologies

        (entropy,) = derived_seeds(self.seed, self.name, 1)
        self.spec = SweepSpec(
            base=FastSimulationConfig(n_nodes=self.params["n_nodes"],
                                      n_files=self.params["n_files"]),
            grid={"bucket_size": self.params["bucket_size"]},
            backends=("fast",), seeds=self.params["seeds"],
            seed_entropy=entropy)
        # A pool of at most nproc workers: the benchmark is sized for 2.
        self.jobs = min(2, os.cpu_count() or 1)
        self.tables = []
        for topology in table_topologies(self.spec.base, self.spec.points()):
            table = global_table_cache().get(cached_overlay(topology))
            self._encode(table)
            self.tables.append(table)
        self._passes = 0

    def _sweep(self, jobs: int):
        """Run the sweep into a fresh store; returns (result, store bytes)."""
        from repro.sweeps import run_sweep

        self._passes += 1
        path = self.workdir / f"store-{self._passes}.json"
        result = run_sweep(self.spec, jobs=jobs, store_path=path,
                           progress=False)
        data = path.read_bytes()
        path.unlink()
        return result, data

    def run_pass(self, kind: str) -> Pass:
        p = Pass(kind, time.perf_counter())
        result, data = self._sweep(1 if kind == "serial" else self.jobs)
        p.wall_s = time.perf_counter() - p.started
        p.latencies_s.append(p.wall_s)
        p.points = result.executed
        p.chunks = sum(r["metrics"]["chunks"] for r in result.records)
        p.requests = sum(r["metrics"]["files"] for r in result.records)
        p.attempted = len(self.spec)
        p.failed = len(result.failures)
        p.output = self._output(data)
        return p

    @staticmethod
    def _output(data: bytes) -> dict:
        points = json.loads(data)["points"]
        return {
            "store_sha256": hashlib.sha256(data).hexdigest(),
            "points": len(points),
            "points_sha256": hashlib.sha256(json.dumps(
                points, sort_keys=True).encode()).hexdigest(),
        }

    def reference(self) -> dict:
        _, data = self._sweep(jobs=1)
        return self._output(data)

    def invariants(self, output: dict) -> list[str]:
        if output["points"] != len(self.spec):
            return [f"store holds {output['points']} of "
                    f"{len(self.spec)} points"]
        return []

    def pinned(self, output: dict) -> dict:
        return {"points_sha256": output["points_sha256"]}

    def layer_stage(self) -> None:
        from repro.perf.shared import attach_table, shared_table_registry

        registry = shared_table_registry()
        for table in self.tables:
            handle = registry.acquire(table)
            try:
                with self.tracer.span("perf.table_attach"):
                    attached = attach_table(handle, table.overlay)
                del attached
            finally:
                registry.release(handle.fingerprint)

    def _per_pass(self, p: Pass) -> dict:
        values = super()._per_pass(p)
        first = p.trace.first.get("sweeps.store_save")
        values["sweeps.first_result_s"] = (
            first - p.started if first is not None else 0.0)
        if p.kind == "serial":
            values["sweeps.point_exec_s"] = (
                p.trace.total_s.get("sweeps.point_exec", 0.0) / p.points)
            values["sweeps.serial_points_per_s"] = p.points / p.wall_s
        return values


WORKLOADS = {cls.name: cls for cls in (PaperChurn, LatencyContended,
                                       ServeGateway, SweepGrid)}
