"""Command-line interface.

``repro-swarm`` (or ``python -m repro.cli``) runs the paper's
experiments and the ablations from the terminal::

    repro-swarm list                     # available experiments
    repro-swarm backends                 # available simulation backends
    repro-swarm run table1               # paper scale (10k downloads)
    repro-swarm run fig5 --files 1000    # scaled down
    repro-swarm run all --files 2000     # every experiment
    repro-swarm run table1 --out out.txt # also write the report
    repro-swarm run table1 --files 200 --backend reference

    repro-swarm trace generate t.json --files 100    # freeze a workload
    repro-swarm trace replay t.json --bucket-size 20 # replay it

    # record a scenario's dynamics (join/leave logs, cache shifts)...
    repro-swarm trace record-dynamics d.json \
        --scenario churn:rate=0.1,recompute=true+caching:size=64
    # ...and replay them later, bit-identical to the direct run
    repro-swarm trace replay-dynamics d.json

    repro-swarm sweep --grid bucket_size=4,8,16 --seeds 10 \
        --backend fast,reference --jobs 4 --store sweep.json

    # distributed: shard the same sweep across 2 host processes
    repro-swarm sweep --grid bucket_size=4,8,16 --seeds 10 \
        --workers 2 --jobs 2 --shard-dir shards --store sweep.json
    # ...or across machines: serve a queue, point hosts at it,
    # then merge the per-host shard stores byte-identically
    repro-swarm sweep-serve --grid bucket_size=4,8,16 --seeds 10 \
        --host 0.0.0.0 --port 8750
    repro-swarm sweep-work --queue http://coordinator:8750 \
        --jobs 4 --store shard-a.json
    repro-swarm sweep --merge-stores shard-*.json --store sweep.json

    # gate saved perfbench logs against the committed record
    python3 perfbench/run.py --workload all --seed 9001 --seconds 8 \
        --trace 0 | tee perf.log
    repro-swarm bench perf.log --record BENCH_perfbench.json

The ``sweep`` subcommand expands a parameter grid over the simulation
configuration, replicates every cell across derived workload seeds,
and reports each quantity as mean [95% CI] (see :mod:`repro.sweeps`;
``--jobs`` fans points out over worker processes with results
identical to a serial run).

Reports render as plain text; ``--markdown`` switches the tables to
Markdown for pasting into documents. Traces freeze a workload into a
file so the exact same requests can be replayed against different
configurations (the paper's replay-for-comparison methodology).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import ConfigurationError, ExperimentError, OverlayError, WorkloadError

__all__ = ["main", "build_parser"]


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags that define a sweep spec (shared by sweep / sweep-serve)."""
    parser.add_argument(
        "--grid", action="append", default=[], metavar="FIELD=V1,V2",
        help=(
            "sweep a config field over comma-separated values "
            "(repeatable; fields are FastSimulationConfig's)"
        ),
    )
    parser.add_argument(
        "--scenario", action="append", default=[], metavar="SPEC",
        help=(
            "scenario axis crossed with the grid (repeatable): a "
            "composition like 'churn:rate=0.1,recompute=true+"
            "caching:size=64'; kinds: churn, caching, freeriding, "
            "join, demand, trace (trace:path=... replays a recorded "
            "dynamics trace)"
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=3,
        help="workload-seed replicas per grid cell (default: 3)",
    )
    parser.add_argument(
        "--backend", default="fast",
        help="comma-separated backend names (see 'backends')",
    )
    parser.add_argument(
        "--files", type=int, default=1000,
        help="downloads per point (default: 1000)",
    )
    parser.add_argument(
        "--nodes", type=int, default=1000,
        help="overlay nodes (default: 1000)",
    )
    parser.add_argument(
        "--entropy", type=int, default=2022,
        help="root entropy for replica seed derivation",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-swarm",
        description=(
            "Reproduce 'Fair Incentivization of Bandwidth Sharing in "
            "Decentralized Storage Networks' (ICDCS 2022)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")
    subparsers.add_parser("backends", help="list simulation backends")

    run = subparsers.add_parser("run", help="run an experiment")
    run.add_argument(
        "experiment",
        help="experiment name from 'list', or 'all'",
    )
    run.add_argument(
        "--files", type=int, default=None,
        help="number of file downloads (default: experiment's own)",
    )
    run.add_argument(
        "--nodes", type=int, default=None,
        help="number of overlay nodes (default: experiment's own)",
    )
    run.add_argument(
        "--backend", default=None,
        help=(
            "simulation backend for experiments that support one "
            "(see 'backends'; default: fast)"
        ),
    )
    run.add_argument(
        "--out", type=Path, default=None,
        help="also write the rendered report to this file",
    )
    run.add_argument(
        "--markdown", action="store_true",
        help="render tables as Markdown",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter-grid x seed-replica sweep"
    )
    _add_spec_arguments(sweep)
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "distribute the sweep over N sweep-work host subprocesses "
            "pulling from an HTTP work queue, each running --jobs "
            "local processes; results (and the --store file) are "
            "byte-identical to a local run"
        ),
    )
    sweep.add_argument(
        "--lease-timeout", type=float, default=300.0, metavar="SECONDS",
        help=(
            "distributed only: a host silent this long forfeits its "
            "leased points (each charged one crash attempt and "
            "re-queued; default: 300)"
        ),
    )
    sweep.add_argument(
        "--shard-dir", type=Path, default=None, metavar="DIR",
        help=(
            "distributed only: where each host writes its durable "
            "shard store (host-NN.json; default: a temp dir discarded "
            "after the run)"
        ),
    )
    sweep.add_argument(
        "--merge-stores", nargs="+", type=Path, default=None,
        metavar="SHARD",
        help=(
            "merge shard stores from a distributed run into --store "
            "and exit (no execution); byte-identical to a serial run "
            "of the same spec when the shards cover it"
        ),
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help=(
            "report pending/completed/quarantined points against "
            "--store and exit without executing anything"
        ),
    )
    sweep.add_argument(
        "--progress", action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "periodic 'completed/total · points/s · ETA' on stderr "
            "(default: only when stderr is a tty)"
        ),
    )
    sweep.add_argument(
        "--cap-jobs", action="store_true",
        help=(
            "clamp --jobs to os.cpu_count(); points are CPU-bound, so "
            "oversubscribing inverts the parallel speedup (without this "
            "flag an excessive --jobs only warns)"
        ),
    )
    sweep.add_argument(
        "--table-cache", action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "build each unique topology's next-hop table once and share "
            "it with workers via shared memory (--no-table-cache: every "
            "worker rebuilds, the pre-PR-3 behavior)"
        ),
    )
    sweep.add_argument(
        "--epoch-cache-tables", type=int, default=None, metavar="N",
        help=(
            "bound the per-process epoch storer-table cache to N tables "
            "(default: a bytes budget sized by address width; see "
            "repro.perf.table_cache.EpochTableCache)"
        ),
    )
    sweep.add_argument(
        "--store", type=Path, default=None,
        help="JSON result store (resumable and diffable)",
    )
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="overwrite an existing store instead of resuming it",
    )
    sweep.add_argument(
        "--salvage-store", action="store_true",
        help=(
            "if --store points at a truncated/corrupt file, recover "
            "every parseable point record and re-run the rest instead "
            "of refusing"
        ),
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help=(
            "extra attempts per failed point before it is quarantined "
            "into the store's failures section (default: 2; "
            "deterministic capped exponential backoff, no jitter)"
        ),
    )
    sweep.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock budget per point attempt; a point still "
            "running past it has its worker recycled and counts as a "
            "retryable timeout failure (requires --jobs >= 2; the "
            "serial executor has no watchdog)"
        ),
    )
    fail_mode = sweep.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        default=True,
        help=(
            "quarantine points that exhaust --max-retries and finish "
            "the rest of the sweep (default)"
        ),
    )
    fail_mode.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the sweep on the first point that exhausts its "
             "retry budget",
    )
    sweep.add_argument(
        "--fault-plan", type=Path, default=None, metavar="FILE",
        help=(
            "deterministic fault-injection plan (JSON; see "
            "repro.sweeps.chaos) applied to this run — for testing "
            "the recovery paths, not for production sweeps"
        ),
    )
    sweep.add_argument(
        "--out", type=Path, default=None,
        help="also write the rendered report to this file",
    )
    sweep.add_argument(
        "--markdown", action="store_true",
        help="render tables as Markdown",
    )

    serve = subparsers.add_parser(
        "sweep-serve",
        help="serve a sweep's points as an HTTP work queue for "
             "sweep-work hosts",
    )
    _add_spec_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1",
        help=(
            "bind address (default: 127.0.0.1; use 0.0.0.0 for other "
            "machines — NOTE: plaintext HTTP, no auth; serve only to "
            "hosts you trust)"
        ),
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = OS-assigned, printed at start)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=300.0, metavar="SECONDS",
        help=(
            "a host silent this long forfeits its leased points "
            "(default: 300)"
        ),
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="global per-point retry budget (default: 2)",
    )
    serve.add_argument(
        "--store", type=Path, default=None,
        help=(
            "maintain the merged main store here incrementally "
            "(resumable; equivalently, merge the hosts' shards "
            "afterwards with sweep --merge-stores)"
        ),
    )
    serve.add_argument(
        "--no-resume", action="store_true",
        help="overwrite an existing --store instead of resuming it",
    )
    serve.add_argument(
        "--salvage-store", action="store_true",
        help=(
            "recover a corrupt/truncated --store (keep parseable "
            "records, re-serve the rest) instead of refusing it"
        ),
    )

    work = subparsers.add_parser(
        "sweep-work",
        help="pull and execute sweep points from a sweep-serve queue",
    )
    work.add_argument(
        "--queue", required=True, metavar="URL",
        help="the work queue, e.g. http://coordinator:8750",
    )
    work.add_argument(
        "--store", type=Path, required=True,
        help="this host's durable shard store (resumed if present)",
    )
    work.add_argument(
        "--worker-id", default=None,
        help="stable host name for leases/logs (default: host-<pid>)",
    )
    work.add_argument(
        "--jobs", type=int, default=1,
        help="local worker processes on this host (1 = serial)",
    )
    work.add_argument(
        "--cap-jobs", action="store_true",
        help="clamp --jobs to this host's os.cpu_count()",
    )
    work.add_argument(
        "--table-cache", action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "share built next-hop tables with local workers via "
            "shared memory (--no-table-cache: rebuild per process)"
        ),
    )
    work.add_argument(
        "--epoch-cache-tables", type=int, default=None, metavar="N",
        help="bound the per-process epoch storer-table cache",
    )
    work.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="local hang watchdog per point attempt (needs --jobs >= 2)",
    )
    work.add_argument(
        "--max-pool-restarts", type=int, default=8,
        help="local pool crash/hang rebuild budget (default: 8)",
    )
    work.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="idle re-poll interval while other hosts hold leases",
    )

    bench = subparsers.add_parser(
        "bench",
        help="gate perfbench logs against the committed benchmark record",
    )
    bench.add_argument(
        "logs", nargs="+", type=Path, metavar="LOG",
        help="saved output of perfbench/run.py --trace 0",
    )
    bench.add_argument(
        "--record", type=Path, default=Path("BENCH_perfbench.json"),
        help=(
            "the committed record; BENCHMARK.json beside it says which "
            "way each metric is better (default: BENCH_perfbench.json)"
        ),
    )
    bench.add_argument(
        "--append", action="store_true",
        help=(
            "append the logged runs to the record instead of gating "
            "them (clean git tree and passed output checks only)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "live service mode: NDJSON requests in, NDJSON rolling "
            "aggregates out"
        ),
    )
    serve.add_argument(
        "--input", default="-", metavar="PATH",
        help="NDJSON request source ('-' = stdin, the default); an "
             "NDJSON workload-trace file is accepted directly",
    )
    serve.add_argument("--nodes", type=int, default=1000)
    serve.add_argument("--bits", type=int, default=16)
    serve.add_argument("--bucket-size", type=int, default=4)
    serve.add_argument("--overlay-seed", type=int, default=42)
    serve.add_argument(
        "--max-batch", type=int, default=256,
        help="files per micro-epoch (default: 256)",
    )
    serve.add_argument(
        "--flush-interval", type=int, default=1,
        help="emit a snapshot line every N micro-epochs (default: 1)",
    )
    serve.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="serve under dynamics, e.g. 'churn:rate=0.1'; requires "
             "--epochs",
    )
    serve.add_argument(
        "--epochs", type=int, default=None,
        help="epoch count for --scenario serving (schedules are "
             "sized up front)",
    )
    serve.add_argument(
        "--batch", action="store_true",
        help="reference mode: materialize the whole input, run the "
             "one-shot engine, emit only the final line (CI compares "
             "this byte-for-byte against the streamed final line)",
    )

    trace = subparsers.add_parser(
        "trace", help="generate or replay workload traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser(
        "generate", help="freeze a workload into a JSON trace"
    )
    generate.add_argument("path", type=Path, help="output trace file")
    generate.add_argument("--files", type=int, default=100)
    generate.add_argument("--nodes", type=int, default=1000)
    generate.add_argument("--bits", type=int, default=16)
    generate.add_argument("--share", type=float, default=1.0,
                          help="originator share (paper: 0.2 or 1.0)")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--overlay-seed", type=int, default=42)

    replay = trace_sub.add_parser(
        "replay", help="replay a trace against a configuration"
    )
    replay.add_argument("path", type=Path, help="trace file to replay")
    replay.add_argument(
        "--nodes", type=int, default=None,
        help="overlay nodes (default: the trace header's, else 1000)",
    )
    replay.add_argument(
        "--bits", type=int, default=None,
        help="address bits (default: the trace header's, else 16)",
    )
    replay.add_argument("--bucket-size", type=int, default=4)
    replay.add_argument(
        "--overlay-seed", type=int, default=None,
        help="overlay seed (default: the trace header's, else 42)",
    )

    record_dynamics = trace_sub.add_parser(
        "record-dynamics",
        help="record a scenario's epoch schedule as a dynamics trace",
    )
    record_dynamics.add_argument(
        "path", type=Path, help="output dynamics-trace file"
    )
    record_dynamics.add_argument(
        "--scenario", required=True, metavar="SPEC",
        help=(
            "scenario composition to record, e.g. "
            "'churn:rate=0.1,recompute=true+caching:size=64'"
        ),
    )
    record_dynamics.add_argument("--files", type=int, default=1000)
    record_dynamics.add_argument("--nodes", type=int, default=1000)
    record_dynamics.add_argument("--bits", type=int, default=16)
    record_dynamics.add_argument("--batch-files", type=int, default=512)
    record_dynamics.add_argument("--overlay-seed", type=int, default=42)

    replay_dynamics = trace_sub.add_parser(
        "replay-dynamics",
        help="replay a recorded dynamics trace through the engine",
    )
    replay_dynamics.add_argument(
        "path", type=Path, help="dynamics-trace file to replay"
    )
    replay_dynamics.add_argument(
        "--compose", default=None, metavar="SPEC",
        help=(
            "extra scenario composed on top of the replayed trace "
            "(appended with '+'), e.g. 'caching:size=64'"
        ),
    )
    replay_dynamics.add_argument("--files", type=int, default=1000)
    replay_dynamics.add_argument("--batch-files", type=int, default=512)
    replay_dynamics.add_argument("--bucket-size", type=int, default=4)
    replay_dynamics.add_argument("--workload-seed", type=int, default=7)

    import_requests = trace_sub.add_parser(
        "import-requests",
        help=(
            "convert a measured gateway request log (NDJSON) into an "
            "NDJSON workload trace"
        ),
    )
    import_requests.add_argument(
        "log", help="request log to import ('-' = stdin)"
    )
    import_requests.add_argument(
        "out", type=Path, help="output NDJSON trace file"
    )
    import_requests.add_argument("--nodes", type=int, default=1000)
    import_requests.add_argument("--bits", type=int, default=16)
    import_requests.add_argument("--overlay-seed", type=int, default=42)

    import_dynamics = trace_sub.add_parser(
        "import-dynamics",
        help=(
            "convert a measured join/leave log (NDJSON) into a "
            "dynamics trace"
        ),
    )
    import_dynamics.add_argument(
        "log", help="membership log to import ('-' = stdin)"
    )
    import_dynamics.add_argument(
        "out", type=Path, help="output dynamics-trace file"
    )
    import_dynamics.add_argument("--nodes", type=int, default=1000)
    import_dynamics.add_argument("--bits", type=int, default=16)
    import_dynamics.add_argument("--overlay-seed", type=int, default=42)
    grid = import_dynamics.add_mutually_exclusive_group(required=True)
    grid.add_argument(
        "--epochs", type=int, default=None,
        help="split the log's time span into this many equal epochs",
    )
    grid.add_argument(
        "--epoch-seconds", type=float, default=None,
        help="fixed epoch width in log seconds",
    )
    import_dynamics.add_argument(
        "--recompute", action="store_true",
        help="replay re-homes storers onto the surviving population "
             "each epoch",
    )

    overlay = subparsers.add_parser(
        "overlay", help="build or inspect overlay networks"
    )
    overlay_sub = overlay.add_subparsers(dest="overlay_command",
                                         required=True)

    build = overlay_sub.add_parser(
        "build", help="build an overlay and save it as JSON"
    )
    build.add_argument("path", type=Path, help="output overlay file")
    build.add_argument("--nodes", type=int, default=1000)
    build.add_argument("--bits", type=int, default=16)
    build.add_argument("--bucket-size", type=int, default=4)
    build.add_argument("--seed", type=int, default=42)

    inspect = overlay_sub.add_parser(
        "inspect", help="degree stats and a Fig.3-style routing table"
    )
    inspect.add_argument("path", type=Path, help="overlay file to inspect")
    inspect.add_argument(
        "--node", type=int, default=None,
        help="render this node's routing table (default: first node)",
    )
    return parser


def _render(report, markdown: bool) -> str:
    if not markdown:
        return report.render()
    parts = [f"## {report.title} ({report.name})"]
    for table in report.tables:
        parts.append("")
        parts.append(table.to_markdown())
    for caption, figure in report.figures:
        parts.append("")
        parts.append(f"**{caption}**")
        parts.append("```")
        parts.append(figure)
        parts.append("```")
    for note in report.notes:
        parts.append("")
        parts.append(f"> {note}")
    return "\n".join(parts)


def _run_one(name: str, args: argparse.Namespace) -> str:
    from .experiments.registry import get_experiment

    spec = get_experiment(name)
    kwargs = {}
    if args.files is not None:
        kwargs["n_files"] = args.files
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    if args.backend is not None:
        from .backends import get_backend

        try:
            backend = get_backend(args.backend)
        except ConfigurationError as error:
            raise ExperimentError(str(error)) from None
        if not spec.supports_backend:
            print(
                f"[{name} runs on its own engine; --backend "
                f"{args.backend} ignored]"
            )
        elif not backend.replays_workload:
            # Self-contained models (tit_for_tat) don't replay the
            # overlay workload these runners compare traffic on.
            raise ExperimentError(
                f"backend {args.backend!r} does not replay the download "
                f"workload; run it via run_simulation() directly"
            )
        else:
            kwargs["backend"] = args.backend
    started = time.perf_counter()
    report = spec.runner(**kwargs)
    elapsed = time.perf_counter() - started
    rendered = _render(report, args.markdown)
    return f"{rendered}\n\n[{name} completed in {elapsed:.1f}s]"


def _spec_from_args(args: argparse.Namespace):
    """Build the SweepSpec shared by sweep / sweep-serve / --dry-run."""
    from .backends import get_backend
    from .backends.config import FastSimulationConfig
    from .sweeps import SweepSpec, parse_grid_arguments

    grid = parse_grid_arguments(args.grid)
    backends = tuple(
        name.strip() for name in args.backend.split(",") if name.strip()
    )
    for name in backends:
        get_backend(name)  # fail early with the known-backend list
    return SweepSpec(
        base=FastSimulationConfig(n_nodes=args.nodes, n_files=args.files),
        grid=grid,
        backends=backends,
        seeds=args.seeds,
        seed_entropy=args.entropy,
        scenarios=tuple(args.scenario),
    )


def _merge_stores_run(args: argparse.Namespace) -> int:
    from .sweeps import SweepStore

    if args.store is None:
        raise ExperimentError(
            "--merge-stores needs --store for the merged output"
        )
    shards = [SweepStore.load(path) for path in args.merge_stores]
    merged = SweepStore.merge(shards, path=args.store)
    merged.save()
    print(
        f"merged {len(shards)} shard(s) -> {args.store}: "
        f"{len(merged.points)} point(s), "
        f"{len(merged.failures)} quarantined"
    )
    return 0


def _sweep_run(args: argparse.Namespace) -> int:
    from .experiments.sweeps import sweep_report
    from .sweeps import run_sweep, sweep_status

    if args.merge_stores is not None:
        return _merge_stores_run(args)
    spec = _spec_from_args(args)
    if args.dry_run:
        status = sweep_status(spec, args.store,
                              salvage=args.salvage_store)
        print(
            f"sweep --dry-run: {status['total']} point(s) total, "
            f"{len(status['completed'])} completed, "
            f"{len(status['pending'])} pending, "
            f"{len(status['quarantined'])} quarantined"
        )
        for heading in ("pending", "quarantined"):
            for point_id in status[heading]:
                print(f"  {heading}: {point_id}")
        return 0
    backends = spec.backends
    # cells() already crosses in the scenario axis; print the grid
    # factor separately so the breakdown multiplies to the point count.
    n_grid_cells = len(spec.cells()) // (len(spec.scenarios) or 1)
    breakdown = f"{n_grid_cells} cell(s)"
    if spec.scenarios:
        breakdown += f" x {len(spec.scenarios)} scenario(s)"
    layout = f"jobs={args.jobs}"
    if args.workers is not None:
        layout = f"workers={args.workers} x {layout}"
    print(
        f"sweep: {len(spec)} points ({breakdown} x {len(backends)} "
        f"backend(s) x {args.seeds} seed(s)), {layout}"
    )
    sweep = run_sweep(
        spec, jobs=args.jobs, store_path=args.store,
        resume=not args.no_resume, table_cache=args.table_cache,
        cap_jobs=args.cap_jobs,
        epoch_cache_tables=args.epoch_cache_tables,
        max_retries=args.max_retries,
        point_timeout=args.point_timeout,
        keep_going=args.keep_going,
        fault_plan=args.fault_plan,
        salvage=args.salvage_store,
        workers=args.workers,
        lease_timeout=args.lease_timeout,
        shard_dir=args.shard_dir,
        progress=args.progress,
    )
    report = sweep_report(
        sweep, name="sweep",
        title=f"Sweep over {', '.join(name for name, _ in spec.grid) or 'base config'}",
    )
    rendered = _render(report, args.markdown)
    print(rendered)
    if args.store is not None:
        print(f"results stored in {args.store}")
    if args.out is not None:
        args.out.write_text(rendered + "\n")
        print(f"report written to {args.out}")
    if sweep.failures:
        print(
            f"WARNING: {len(sweep.failures)} point(s) quarantined "
            f"after exhausting --max-retries={args.max_retries}:"
        )
        for failure in sweep.failures:
            print(f"  {failure.describe()}")
        if args.store is not None:
            print(
                "  (recorded in the store's failures section; "
                "re-running the sweep retries them)"
            )
    if sweep.interrupted is not None:
        import signal as signal_module

        name = signal_module.Signals(sweep.interrupted).name
        print(
            f"sweep interrupted by {name}: {sweep.executed} point(s) "
            f"completed this run"
            + (" and saved; re-run to resume"
               if args.store is not None else "")
        )
        # The conventional shell encoding of death-by-signal, without
        # actually re-raising it: completed work is already flushed.
        return 128 + sweep.interrupted
    return 1 if sweep.failures else 0


def _sweep_serve_run(args: argparse.Namespace) -> int:
    from .sweeps import sweep_serve

    spec = _spec_from_args(args)
    try:
        quarantined = sweep_serve(
            spec,
            host=args.host,
            port=args.port,
            lease_timeout=args.lease_timeout,
            max_retries=args.max_retries,
            store_path=args.store,
            resume=not args.no_resume,
            salvage=args.salvage_store,
        )
    except KeyboardInterrupt:
        return 130
    return 1 if quarantined else 0


def _sweep_work_run(args: argparse.Namespace) -> int:
    from .sweeps import sweep_work

    return sweep_work(
        args.queue,
        store_path=args.store,
        worker_id=args.worker_id,
        jobs=args.jobs,
        share_tables=args.table_cache,
        cap_jobs=args.cap_jobs,
        epoch_cache_tables=args.epoch_cache_tables,
        point_timeout=args.point_timeout,
        max_pool_restarts=args.max_pool_restarts,
        poll_interval=args.poll_interval,
    )


def _bench_run(args: argparse.Namespace) -> int:
    import json

    from .perf.bench import MAX_REGRESSION, compare, read_runs

    try:
        runs = read_runs(args.logs)
    except ConfigurationError as error:
        print(f"repro-swarm bench: {error}", file=sys.stderr)
        return 1
    if not runs:
        print("repro-swarm bench: the logs hold no perfbench run",
              file=sys.stderr)
        return 1
    records = (json.loads(args.record.read_text())
               if args.record.exists() else [])
    if args.append:
        # A record must describe code that can be checked out again.
        refused = [
            f"{run['workload']}: git_dirty: "
            f"{run['provenance'].get('git_dirty')}, correct: "
            f"{run['correct']}" for run in runs
            if run["provenance"].get("git_dirty") is not False
            or not run["correct"]
        ]
        for problem in refused:
            print(f"repro-swarm bench: refusing to append {problem}",
                  file=sys.stderr)
        if refused:
            return 1
        args.record.write_text(
            json.dumps(records + runs, indent=2, sort_keys=True) + "\n")
        print(f"appended {len(runs)} run(s) to {args.record}")
        return 0
    spec = json.loads(
        (args.record.resolve().parent / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"]}
    problems = compare(runs, records, better)
    for problem in problems:
        print(f"repro-swarm bench: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(runs)} run(s) within {MAX_REGRESSION:g}x of {args.record}")
    return 0


def _trace_generate(args: argparse.Namespace) -> int:
    from .backends.fast import cached_overlay
    from .kademlia.buckets import BucketLimits
    from .kademlia.overlay import OverlayConfig
    from .workloads.distributions import OriginatorPool
    from .workloads.generators import DownloadWorkload
    from .workloads.traces import WorkloadTrace

    overlay = cached_overlay(OverlayConfig(
        n_nodes=args.nodes, bits=args.bits,
        limits=BucketLimits.uniform(4), seed=args.overlay_seed,
    ))
    workload = DownloadWorkload(
        n_files=args.files,
        originators=OriginatorPool(share=args.share),
        seed=args.seed,
    )
    events = workload.materialize(overlay.address_array(), overlay.space)
    trace = WorkloadTrace(
        events, bits=args.bits, n_nodes=args.nodes,
        overlay_seed=args.overlay_seed,
    )
    trace.save(args.path)
    print(f"trace written to {args.path}: {trace.summary()}")
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    from .backends.fast import FastSimulation, FastSimulationConfig
    from .workloads.traces import TraceWorkload, WorkloadTrace

    trace = WorkloadTrace.load(args.path)
    # The versioned header carries the overlay the trace was captured
    # for; flags default to it (legacy headerless traces fall back to
    # the historical defaults) and explicit mismatching flags are
    # rejected inside TraceWorkload/overlay validation below.
    nodes = args.nodes if args.nodes is not None else (
        trace.n_nodes if trace.n_nodes is not None else 1000
    )
    bits = args.bits if args.bits is not None else (
        trace.bits if trace.bits is not None else 16
    )
    overlay_seed = args.overlay_seed if args.overlay_seed is not None else (
        trace.overlay_seed if trace.overlay_seed is not None else 42
    )
    if (trace.overlay_seed is not None
            and overlay_seed != trace.overlay_seed):
        raise WorkloadError(
            f"trace {args.path} was recorded on overlay seed "
            f"{trace.overlay_seed} but --overlay-seed {overlay_seed} "
            f"was given; replay traces against the overlay they were "
            f"generated for"
        )
    config = FastSimulationConfig(
        n_nodes=nodes, bits=bits,
        bucket_size=args.bucket_size, overlay_seed=overlay_seed,
        n_files=len(trace),
    )
    result = FastSimulation(config).run(TraceWorkload(trace))
    print(f"replayed {args.path}: {trace.summary()}")
    print(result.summary())
    return 0


def _trace_record_dynamics(args: argparse.Namespace) -> int:
    from .backends.config import FastSimulationConfig
    from .scenarios.trace import record_dynamics

    config = FastSimulationConfig(
        n_nodes=args.nodes, bits=args.bits, n_files=args.files,
        batch_files=args.batch_files, overlay_seed=args.overlay_seed,
        scenario=args.scenario,
    )
    stack = config.scenario_stack()
    assert stack is not None  # --scenario is required
    trace = record_dynamics(stack, config.scenario_context())
    trace.save(args.path)
    print(f"dynamics trace written to {args.path}: {trace.describe()}")
    return 0


def _trace_replay_dynamics(args: argparse.Namespace) -> int:
    from .backends.fast import FastSimulation, FastSimulationConfig
    from .scenarios.trace import DynamicsTrace

    path = str(args.path)
    # '=' is fine: the grammar splits key=value on the first '=' only.
    reserved = [c for c in "+," if c in path]
    if reserved:
        raise ExperimentError(
            f"trace path {path!r} contains the scenario-grammar "
            f"character(s) {reserved}; rename the file or construct "
            f"repro.scenarios.TraceReplay directly"
        )
    header = DynamicsTrace.load(args.path)
    spec = f"trace:path={path}"
    if args.compose:
        spec = f"{spec}+{args.compose}"
    config = FastSimulationConfig(
        n_nodes=header.n_nodes, bits=header.bits,
        overlay_seed=header.overlay_seed, n_files=args.files,
        batch_files=args.batch_files, bucket_size=args.bucket_size,
        workload_seed=args.workload_seed, scenario=spec,
    )
    result = FastSimulation(config).run()
    print(f"replaying dynamics from {args.path}: {header.describe()}")
    print(result.summary())
    return 0


def _serve_run(args: argparse.Namespace) -> int:
    from .backends.config import FastSimulationConfig
    from .serve import open_input, run_serve

    if args.scenario is not None and args.epochs is None:
        raise ExperimentError(
            "--scenario serving needs --epochs: epoch schedules are "
            "sized up front (use the expected stream length in "
            "micro-epochs)"
        )
    config = FastSimulationConfig(
        n_nodes=args.nodes, bits=args.bits,
        bucket_size=args.bucket_size, overlay_seed=args.overlay_seed,
        batch_files=args.max_batch, scenario=args.scenario or "",
    )
    source = open_input(args.input)
    try:
        run_serve(
            config, source, sys.stdout,
            max_batch=args.max_batch,
            flush_interval=args.flush_interval,
            n_epochs=args.epochs, batch_mode=args.batch,
        )
    except WorkloadError as error:
        # A refused request line ends a long-lived server with one
        # argparse-style line, not a traceback.
        print(f"repro-swarm serve: error: {error}", file=sys.stderr)
        return 2
    finally:
        if source is not sys.stdin:
            source.close()
    return 0


def _trace_import_requests(args: argparse.Namespace) -> int:
    from .backends.fast import cached_overlay
    from .kademlia.buckets import BucketLimits
    from .kademlia.overlay import OverlayConfig
    from .workloads.ingest import import_requests

    overlay = cached_overlay(OverlayConfig(
        n_nodes=args.nodes, bits=args.bits,
        limits=BucketLimits.uniform(4), seed=args.overlay_seed,
    ))
    if args.log == "-":
        summary = import_requests(sys.stdin, args.out, overlay=overlay)
    else:
        with open(args.log, "r", encoding="utf-8") as handle:
            summary = import_requests(handle, args.out, overlay=overlay)
    print(f"trace written to {args.out}: {summary}")
    return 0


def _trace_import_dynamics(args: argparse.Namespace) -> int:
    from .backends.fast import cached_overlay
    from .kademlia.buckets import BucketLimits
    from .kademlia.overlay import OverlayConfig
    from .scenarios.ingest import import_dynamics

    overlay = cached_overlay(OverlayConfig(
        n_nodes=args.nodes, bits=args.bits,
        limits=BucketLimits.uniform(4), seed=args.overlay_seed,
    ))
    source_label = (
        "import:stdin" if args.log == "-"
        else f"import:{Path(args.log).name}"
    )
    kwargs = dict(
        overlay=overlay, n_epochs=args.epochs,
        epoch_seconds=args.epoch_seconds,
        recompute_storers=args.recompute, source=source_label,
    )
    if args.log == "-":
        trace, summary = import_dynamics(sys.stdin, **kwargs)
    else:
        with open(args.log, "r", encoding="utf-8") as handle:
            trace, summary = import_dynamics(handle, **kwargs)
    trace.save(args.out)
    print(f"dynamics trace written to {args.out}: {summary}")
    return 0


def _overlay_build(args: argparse.Namespace) -> int:
    from .kademlia.buckets import BucketLimits
    from .kademlia.overlay import Overlay, OverlayConfig
    from .kademlia.topology import degree_stats

    overlay = Overlay.build(OverlayConfig(
        n_nodes=args.nodes, bits=args.bits,
        limits=BucketLimits.uniform(args.bucket_size), seed=args.seed,
    ))
    overlay.save(args.path)
    print(f"overlay written to {args.path}: {degree_stats(overlay)}")
    return 0


def _overlay_inspect(args: argparse.Namespace) -> int:
    from .analysis.table_viz import (
        render_bucket_occupancy,
        render_routing_table,
    )
    from .kademlia.overlay import Overlay
    from .kademlia.topology import degree_stats

    overlay = Overlay.load(args.path)
    node = args.node if args.node is not None else overlay.addresses[0]
    table = overlay.table(node)
    print(degree_stats(overlay))
    print()
    print(render_routing_table(table))
    print()
    print(render_bucket_occupancy(table))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from .experiments.registry import list_experiments

        for spec in list_experiments():
            artifact = f" [{spec.paper_artifact}]" if spec.paper_artifact else ""
            print(f"{spec.name:<12} {spec.description}{artifact}")
        return 0

    if args.command == "backends":
        from .backends import backend_specs

        for name, description in backend_specs():
            print(f"{name:<12} {description}")
        return 0

    if args.command == "sweep":
        return _sweep_run(args)

    if args.command == "sweep-serve":
        return _sweep_serve_run(args)

    if args.command == "sweep-work":
        return _sweep_work_run(args)

    if args.command == "bench":
        return _bench_run(args)

    if args.command == "serve":
        return _serve_run(args)

    if args.command == "trace":
        if args.trace_command == "generate":
            return _trace_generate(args)
        if args.trace_command == "record-dynamics":
            return _trace_record_dynamics(args)
        if args.trace_command == "replay-dynamics":
            return _trace_replay_dynamics(args)
        if args.trace_command == "import-requests":
            return _trace_import_requests(args)
        if args.trace_command == "import-dynamics":
            return _trace_import_dynamics(args)
        return _trace_replay(args)

    if args.command == "overlay":
        command = (_overlay_build if args.overlay_command == "build"
                   else _overlay_inspect)
        try:
            return command(args)
        except (OSError, ConfigurationError, OverlayError) as error:
            # A bad configuration or overlay file is refused with one
            # argparse-style line, not a traceback.
            print(f"repro-swarm overlay {args.overlay_command}: error: "
                  f"{error}", file=sys.stderr)
            return 2

    from .experiments.registry import list_experiments

    names = (
        [spec.name for spec in list_experiments()]
        if args.experiment == "all"
        else [args.experiment]
    )
    outputs = []
    for name in names:
        output = _run_one(name, args)
        print(output)
        print()
        outputs.append(output)
    if args.out is not None:
        args.out.write_text("\n\n".join(outputs) + "\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
