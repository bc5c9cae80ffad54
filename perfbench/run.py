"""The repository's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload paper-churn --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
their times and rates scaled to a reference host speed sampled between
passes (``hostspeed.py``; ``setup_s`` is not scaled);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the time no layer accounts for, and the tracing
overhead. Every run checks the program's outputs (against the other
passes, an independent reference run and, for pinned seeds, the values
in ``pins.json``) and prints one JSON object as its last line. It exits
with status 1 when an output check fails and 2 when the program source
is missing. A workload whose speed varies with the process it runs in
is measured in several fresh processes, one after another, and reports
their mean. ``--workload all`` runs every workload in turn, each in a
fresh process, and fails if any of them does.

``BENCHMARK.json`` declares the workloads and every metric's name and
unit; ``workloads.py`` implements the workloads and names the
end-to-end metric and workload each per-layer metric belongs to.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
#: Set-up samples per untraced run (the run itself plus fresh processes).
SETUP_SAMPLES = 3
#: Fewest measured passes a run takes, however long they last.
MIN_PASSES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds (tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _read_status(pid, field: str) -> int:
    """A ``/proc/<pid>/status`` size field in KiB (0 if unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProcessSampler:
    """Samples this process's children while the passes run.

    Tracks how many pool workers run at once (checked against nproc)
    and each process's peak resident set, so the reported peak covers
    the child processes too. Only workloads that start workers sample:
    a thread preempted while it holds the interpreter lock stalls the
    measured thread, which shows in batch latency tails.
    """

    def __init__(self, active: bool, period_s: float = 0.05) -> None:
        self.active = active
        self.period_s = period_s
        self.max_workers = 0
        self.max_children_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _children(self) -> list[int]:
        pid = os.getpid()
        children = []
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    children += [int(c) for c in handle.read().split()]
            except OSError:
                pass
        return children

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            workers = children_kib = 0
            for child in self._children():
                try:
                    with open(f"/proc/{child}/cmdline", "rb") as handle:
                        cmdline = handle.read()
                except OSError:
                    continue
                # Only exec'd pool workers: a child still between fork
                # and exec reports the parent's memory as its own.
                if b"spawn_main" in cmdline:
                    workers += 1
                    children_kib += _read_status(child, "VmHWM")
            self.max_workers = max(self.max_workers, workers)
            self.max_children_kib = max(self.max_children_kib, children_kib)

    def __enter__(self) -> "ProcessSampler":
        if self.active:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self.active:
            self._thread.join()

    def peak_rss_mib(self) -> float:
        """Own peak plus the largest sum of live children's peaks."""
        return (_read_status("self", "VmHWM")
                + self.max_children_kib) / 1024.0


def _reset_peak_rss() -> None:
    """Start this process's peak resident set afresh from its current one.

    Called once the harness has built its inputs, so the peak covers
    the measured passes only: not set-up garbage, not the generated
    inputs, and not the reference runs the output checks make after.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        print("perfbench: cannot reset the peak RSS; it includes set-up",
              file=sys.stderr)


def _setup_probes(args, count: int) -> list[float]:
    """Cold set-up times of the workload in *count* fresh processes.

    The probes run side by side (at most nproc at once) while this
    process waits, which halves their share of the run's wall time.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--scale", args.scale, "--setup-only"]
    samples = []
    batch = max(1, os.cpu_count() or 1)
    for start in range(0, count, batch):
        probes = [subprocess.Popen(command, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for _ in range(min(batch, count - start))]
        try:
            outputs = [probe.communicate(timeout=150) for probe in probes]
        finally:
            for probe in probes:
                probe.kill()
                probe.wait()
        for probe, (out, err) in zip(probes, outputs):
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
            samples.append(float(json.loads(out.splitlines()[-1])["setup_s"]))
    return samples


def _fresh_runs(args, count: int, seconds: float) -> list[dict]:
    """Results of untraced runs in *count* fresh processes, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0",
               "--scale", args.scale, "--child"]
    results = []
    for _ in range(count):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=150, check=False)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith('{"correct"'):
            raise RuntimeError(
                f"measuring process failed: {done.stderr[-2000:]}")
        results.append(json.loads(lines[-1]))
    return results


def _provenance() -> dict:
    import numpy
    from repro.sweeps.store import git_provenance

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, **git_provenance(ROOT)}


def _stop_resource_tracker() -> None:
    """Reap the shared-memory resource tracker the sweep engine starts."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q))


def _end_to_end(passes, setup_samples, peak_rss_mib: float) -> dict:
    ok = [p for p in passes if p.error is None and p.kind == "plain"]

    # Times and rates are scaled to the reference host (see hostspeed).
    def rate(attr):
        return statistics.median(
            getattr(p, attr) * p.slowdown / p.wall_s for p in ok)

    def latency_ms(q):
        # Per pass, then the median over passes, so a burst of machine
        # noise in one pass cannot set the run's tail.
        return statistics.median(
            _percentile(p.latencies_s, q) / p.slowdown for p in ok) * 1000.0

    return {
        "setup_s": statistics.median(setup_samples),
        "chunks_per_s": rate("chunks"),
        "requests_per_s": rate("requests"),
        "points_per_s": rate("points"),
        "batch_latency_p50_ms": latency_ms(50),
        "batch_latency_p90_ms": latency_ms(90),
        "peak_rss_mib": peak_rss_mib,
    }


def _run_passes(workload, kinds, seconds: float, host) -> list:
    """Closed loop: a warm-up pass, then passes until *seconds* are up.

    The host's speed is sampled between passes; each pass takes the
    mean of the samples on either side of it.
    """
    from tracing import instrumented
    from workloads import Pass

    passes = []
    before = host.slowdown()
    deadline = None
    while (deadline is None or time.perf_counter() < deadline
           or len(passes) <= max(MIN_PASSES, len(kinds))):
        # The first pass of a process runs colder than the rest (the
        # sweep's by about a third): it is checked but not measured.
        kind = kinds[(len(passes) - 1) % len(kinds)] if passes else "warm-up"
        try:
            if kind in ("plain", "warm-up"):
                p = workload.run_pass(kind)
            else:
                with instrumented(workload.tracer,
                                  serial_sweep=kind == "serial"):
                    p = workload.run_pass(kind)
                p.trace = workload.tracer.take()
        except Exception:
            traceback.print_exc()
            p = Pass(kind, 0.0, error=traceback.format_exc(limit=1))
        after = host.slowdown()
        p.slowdown, before = (before + after) / 2, after
        passes.append(p)
        if deadline is None:
            deadline = time.perf_counter() + seconds
    return passes


def _measure(args, workload_cls, workdir: Path) -> int:
    from hostspeed import HostSpeed
    from tracing import instrumented
    from workloads import SPEC

    workload = workload_cls(args.seed, args.scale, workdir)
    tracer = workload.tracer
    if args.trace:
        with instrumented(tracer):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_trace = tracer.take()
    workload.prepare_inputs()
    host = HostSpeed(workload.host_parts)
    _reset_peak_rss()

    kinds = workload.trace_kinds if args.trace else ("plain",)
    share = 1 if args.trace or args.child else workload.processes
    with ProcessSampler(workload.starts_workers) as sampler:
        passes = _run_passes(workload, kinds, args.seconds / share, host)
    peak_rss_mib = sampler.peak_rss_mib()
    nproc = os.cpu_count() or 1
    problems = workload.check(passes)
    if sampler.max_workers > nproc:
        problems.append(f"{sampler.max_workers} worker processes ran at "
                        f"once on {nproc} CPUs")

    if args.trace:
        with instrumented(tracer):
            workload.layer_stage()
        setup_trace.self_s.update(tracer.take().self_s)
        values = workload.layer_values(passes, setup_trace)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts = {kind: sum(p.kind == kind for p in passes)
                  for kind in kinds}
        print(f"traced run: {counts} passes")
        others = []
    else:
        others = (_fresh_runs(args, share - 1, args.seconds / share)
                  if share > 1 else [])
        if share > 1:
            # Each process's cold set-up is one more set-up sample.
            samples = [setup_s] + [r["metrics"]["setup_s"]["value"]
                                   for r in others]
        elif args.child:
            samples = [setup_s]
        else:
            samples = [setup_s] + _setup_probes(args, SETUP_SAMPLES - 1)
        values = _end_to_end(passes, samples, peak_rss_mib)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        # The mean over processes: when a shared host runs some processes
        # fast and some slow, a median of three jumps between the two.
        for name in values.keys() - {"setup_s"}:
            values[name] = statistics.fmean(
                [values[name]] + [r["metrics"][name]["value"] for r in others])
        problems += [f"measuring process {i + 2} failed its output checks"
                     for i, r in enumerate(others) if not r["correct"]]
        batches = sum(len(p.latencies_s) for p in passes if p.error is None)
        print(f"untraced run: {len(passes)} passes "
              f"{[round(p.wall_s, 3) for p in passes]} s, host slowdown "
              f"{[round(p.slowdown, 2) for p in passes]}, {batches} batch "
              f"latency samples, set-up samples "
              f"{[round(s, 3) for s in samples]} s")
        for i, r in enumerate(others):
            print(f"measuring process {i + 2}: " + ", ".join(
                f"{name} {metric['value']:.6g}"
                for name, metric in r["metrics"].items()))

    attempted = sum(p.attempted for p in passes if p.error is None)
    failed = sum(p.failed for p in passes if p.error is None)
    failed_units = sum(1 for p in passes if p.error is not None)
    attempted += failed_units + sum(r["attempted"] for r in others)
    failed += failed_units + sum(r["failed"] for r in others)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"provenance: {json.dumps(_provenance(), sort_keys=True)}")
    for name, value in values.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(f"failed_ratio: {failed}/{attempted}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def _run_all(args, workloads) -> int:
    """Run every workload in turn, each in a fresh process."""
    failed = []
    for name in workloads:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale], cwd=ROOT, check=False)
        if done.returncode != 0:
            failed.append(name)
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep every temporary file of the program and its workers inside
    # the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        return _measure(args, WORKLOADS[args.workload], workdir)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
