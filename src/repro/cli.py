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

    repro-swarm trace generate t.ndjson --files 100    # freeze a workload
    repro-swarm trace replay t.ndjson --bucket-size 20 # replay it

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

Every overlay/workload option (``--nodes``, ``--bits``, ...) is a
``FastSimulationConfig`` field with the dataclass's default (the
paper's setup) unless :data:`COMMAND_DEFAULTS` lists the command;
:func:`config_from_args` turns parsed options into the config.

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

from ._files import TextLines, open_output
from .errors import ConfigurationError, ExperimentError, ReproError

__all__ = ["main", "build_parser", "config_from_args", "COMMAND_DEFAULTS"]


#: The overlay/workload options: FastSimulationConfig field -> (flag,
#: type, help). Their defaults are the dataclass's own.
_CONFIG_OPTIONS = {
    "n_nodes": ("--nodes", int, "overlay nodes"),
    "bits": ("--bits", int, "address-space bits"),
    "bucket_size": ("--bucket-size", int, "Kademlia bucket size k"),
    "overlay_seed": ("--overlay-seed", int, "overlay seed"),
    "n_files": ("--files", int, "file downloads"),
    "batch_files": ("--batch-files", int, "files per epoch"),
    "originator_share": ("--share", float,
                         "originator share (paper: 0.2 or 1.0)"),
    "workload_seed": ("--workload-seed", int, "workload seed"),
    "scenario": ("--scenario", str, "scenario composition, e.g. "
                 "'churn:rate=0.1,recompute=true+caching:size=64'"),
}

#: Where a subcommand's default differs from FastSimulationConfig's.
COMMAND_DEFAULTS = {
    "sweep": {"n_files": 1000},
    "sweep-serve": {"n_files": 1000},
    "serve": {"batch_files": 256},
    "trace generate": {"n_files": 100},
    "trace record-dynamics": {"n_files": 1000},
    "trace replay-dynamics": {"n_files": 1000},
}


class _HelpFormatter(argparse.HelpFormatter):
    """Quotes each config option's default (imports it only for help)."""

    def _get_help_string(self, action):
        if action.dest not in _CONFIG_OPTIONS or action.required:
            return action.help
        default = action.default
        if default is argparse.SUPPRESS:
            from .backends.config import FastSimulationConfig

            default = FastSimulationConfig.__dataclass_fields__[
                action.dest].default
        return f"{action.help} (default: {default or 'none'})"


def _add_config_options(parser: argparse.ArgumentParser, command: str,
                        *fields: str, required: tuple = (),
                        **flags: str) -> None:
    """Declare FastSimulationConfig *fields* as options of *command*.

    *flags* respells a field's option (``overlay_seed="--seed"``). An
    option left out is absent from the parsed args (so it keeps the
    dataclass default) unless :data:`COMMAND_DEFAULTS` lists it.
    """
    defaults = COMMAND_DEFAULTS.get(command, {})
    for field in fields:
        flag, kind, text = _CONFIG_OPTIONS[field]
        flag = flags.get(field, flag)
        parser.add_argument(
            flag, dest=field, type=kind, help=text,
            metavar=flag[2:].replace("-", "_").upper(),
            default=defaults.get(field, argparse.SUPPRESS),
            required=field in required,
        )


def config_from_args(args: argparse.Namespace, **fixed):
    """The FastSimulationConfig a parsed command line names.

    Options present in *args* and *fixed* fields (taken from a trace
    header) set their fields; the rest keep the dataclass defaults.
    """
    from .backends.config import FastSimulationConfig

    given = {field: value for field, value in vars(args).items()
             if field in _CONFIG_OPTIONS}
    return FastSimulationConfig(**{**given, **fixed})


def _add_spec_options(parser: argparse.ArgumentParser,
                      command: str) -> None:
    """Options that define a sweep spec (sweep, sweep-serve)."""
    parser.add_argument(
        "--grid", action="append", default=[], metavar="FIELD=V1,V2",
        help=(
            "sweep a config field over comma-separated values "
            "(repeatable; fields are FastSimulationConfig's)"
        ),
    )
    parser.add_argument(
        "--scenario", dest="scenarios", action="append", default=[],
        metavar="SPEC",
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
    _add_config_options(parser, command, "n_files", "n_nodes")
    parser.add_argument(
        "--entropy", type=int, default=2022,
        help="root entropy for replica seed derivation",
    )


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """The result-store and retry options (sweep, sweep-serve)."""
    parser.add_argument(
        "--store", type=Path, default=None,
        help=(
            "JSON result store (resumable and diffable); sweep-serve "
            "maintains the merged main store here incrementally"
        ),
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="overwrite an existing store instead of resuming it",
    )
    parser.add_argument(
        "--salvage-store", action="store_true",
        help=(
            "if --store points at a truncated/corrupt file, recover "
            "every parseable point record and re-run the rest instead "
            "of refusing"
        ),
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=300.0, metavar="SECONDS",
        help=(
            "distributed runs: a host silent this long forfeits its "
            "leased points (each charged one crash attempt and "
            "re-queued; default: 300)"
        ),
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help=(
            "extra attempts per failed point before it is quarantined "
            "into the store's failures section (default: 2; "
            "deterministic capped exponential backoff, no jitter)"
        ),
    )


def _store_options(args: argparse.Namespace) -> dict:
    """The store and retry options as run_sweep/sweep_serve keywords."""
    return {"store_path": args.store, "resume": not args.no_resume,
            "salvage": args.salvage_store,
            "lease_timeout": args.lease_timeout,
            "max_retries": args.max_retries}


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    """The local executor options (sweep, sweep-work)."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="local worker processes (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--cap-jobs", action="store_true",
        help=(
            "clamp --jobs to os.cpu_count(); points are CPU-bound, so "
            "oversubscribing inverts the parallel speedup (without this "
            "flag an excessive --jobs only warns)"
        ),
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock budget per point attempt; a point still "
            "running past it has its worker recycled and counts as a "
            "retryable timeout failure (requires --jobs >= 2; the "
            "serial executor has no watchdog)"
        ),
    )


def _executor_options(args: argparse.Namespace) -> dict:
    """The executor options as run_sweep/sweep_work keywords; a worker
    count below 1 is refused before anything prints or connects."""
    for flag in ("jobs", "workers"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigurationError(f"{flag} must be >= 1, got {value}")
    return {"jobs": args.jobs, "cap_jobs": args.cap_jobs,
            "point_timeout": args.point_timeout}


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    """Where and how a report renders (run, sweep)."""
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the rendered report to this file",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="render tables as Markdown",
    )


def _write_report(args: argparse.Namespace, text: str) -> None:
    """Write a rendered report to ``--out``, when given (run, sweep)."""
    if args.out is not None:
        with open_output(args.out, "report") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.out}")


def _command(subparsers, name: str, handler, help: str):
    """A subcommand whose parsed args run *handler*."""
    parser = subparsers.add_parser(name, help=help,
                                   formatter_class=_HelpFormatter)
    parser.set_defaults(handler=handler, prog=parser.prog)
    return parser


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

    _command(subparsers, "list", _list_run, "list available experiments")
    _command(subparsers, "backends", _backends_run,
             "list simulation backends")

    run = _command(subparsers, "run", _experiments_run, "run an experiment")
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
    _add_report_options(run)

    sweep = _command(subparsers, "sweep", _sweep_run,
                     "run a parameter-grid x seed-replica sweep")
    _add_spec_options(sweep, "sweep")
    _add_executor_options(sweep)
    _add_store_options(sweep)
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
    _add_report_options(sweep)

    serve = _command(subparsers, "sweep-serve", _sweep_serve_run,
                     "serve a sweep's points as an HTTP work queue for "
                     "sweep-work hosts")
    _add_spec_options(serve, "sweep-serve")
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
    _add_store_options(serve)

    work = _command(subparsers, "sweep-work", _sweep_work_run,
                    "pull and execute sweep points from a sweep-serve "
                    "queue")
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
    _add_executor_options(work)
    work.add_argument(
        "--max-pool-restarts", type=int, default=8,
        help="local pool crash/hang rebuild budget (default: 8)",
    )
    work.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="idle re-poll interval while other hosts hold leases",
    )

    bench = _command(subparsers, "bench", _bench_run,
                     "gate perfbench logs against the committed "
                     "benchmark record")
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

    serve = _command(subparsers, "serve", _serve_run,
                     "live service mode: NDJSON requests in, NDJSON "
                     "rolling aggregates out")
    serve.add_argument(
        "--input", default="-", metavar="PATH",
        help="NDJSON request source ('-' = stdin, the default); a "
             "request-trace file is accepted once its header matches "
             "--bits, --nodes and --overlay-seed",
    )
    _add_config_options(serve, "serve", "n_nodes", "bits", "bucket_size",
                        "overlay_seed", "batch_files", "scenario",
                        batch_files="--max-batch")
    serve.add_argument(
        "--flush-interval", type=int, default=1,
        help="emit a snapshot line every N micro-epochs (default: 1)",
    )
    serve.add_argument(
        "--epochs", type=int, default=None,
        help="epoch count for --scenario serving, which needs it "
             "(schedules are sized up front)",
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

    generate = _command(trace_sub, "generate", _trace_generate,
                        "freeze a workload into an NDJSON trace")
    generate.add_argument("path", type=Path, help="output trace file")
    _add_config_options(generate, "trace generate", "n_files", "n_nodes",
                        "bits", "originator_share", "workload_seed",
                        "overlay_seed", workload_seed="--seed")

    replay = _command(trace_sub, "replay", _trace_replay,
                      "replay a trace against a configuration")
    replay.add_argument(
        "path", type=Path,
        help="trace file to replay (on the overlay its header names)",
    )
    _add_config_options(replay, "trace replay", "bucket_size")

    record_dynamics = _command(
        trace_sub, "record-dynamics", _trace_record_dynamics,
        "record a scenario's epoch schedule as a dynamics trace",
    )
    record_dynamics.add_argument(
        "path", type=Path, help="output dynamics-trace file"
    )
    _add_config_options(record_dynamics, "trace record-dynamics",
                        "scenario", "n_files", "n_nodes", "bits",
                        "batch_files", "overlay_seed",
                        required=("scenario",))

    replay_dynamics = _command(
        trace_sub, "replay-dynamics", _trace_replay_dynamics,
        "replay a recorded dynamics trace through the engine",
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
    _add_config_options(replay_dynamics, "trace replay-dynamics",
                        "n_files", "batch_files", "bucket_size",
                        "workload_seed")

    import_requests = _command(
        trace_sub, "import-requests", _trace_import_requests,
        "convert a measured gateway request log (NDJSON) into an "
        "NDJSON workload trace",
    )
    import_requests.add_argument(
        "log", help="request log to import ('-' = stdin)"
    )
    import_requests.add_argument(
        "out", type=Path, help="output NDJSON trace file"
    )
    _add_config_options(import_requests, "trace import-requests",
                        "n_nodes", "bits", "overlay_seed")

    import_dynamics = _command(
        trace_sub, "import-dynamics", _trace_import_dynamics,
        "convert a measured join/leave log (NDJSON) into a dynamics "
        "trace",
    )
    import_dynamics.add_argument(
        "log", help="membership log to import ('-' = stdin)"
    )
    import_dynamics.add_argument(
        "out", type=Path, help="output dynamics-trace file"
    )
    _add_config_options(import_dynamics, "trace import-dynamics",
                        "n_nodes", "bits", "overlay_seed")
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

    build = _command(overlay_sub, "build", _overlay_build,
                     "build an overlay and save it as JSON")
    build.add_argument("path", type=Path, help="output overlay file")
    _add_config_options(build, "overlay build", "n_nodes", "bits",
                        "bucket_size", "overlay_seed",
                        overlay_seed="--seed")

    inspect = _command(overlay_sub, "inspect", _overlay_inspect,
                       "degree stats and a Fig.3-style routing table")
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

        backend = get_backend(args.backend)
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
    from .sweeps import SweepSpec, parse_grid_arguments

    backends = tuple(
        name.strip() for name in args.backend.split(",") if name.strip()
    )
    for name in backends:
        get_backend(name)  # fail early with the known-backend list
    return SweepSpec(
        base=config_from_args(args), grid=parse_grid_arguments(args.grid),
        backends=backends, seeds=args.seeds, seed_entropy=args.entropy,
        scenarios=tuple(args.scenarios),
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
    executor = _executor_options(args)
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
        f"sweep: {len(spec)} points ({breakdown} x {len(spec.backends)} "
        f"backend(s) x {args.seeds} seed(s)), {layout}"
    )
    sweep = run_sweep(
        spec, **executor, **_store_options(args),
        keep_going=args.keep_going, fault_plan=args.fault_plan,
        workers=args.workers, shard_dir=args.shard_dir,
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
    _write_report(args, rendered)
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
        quarantined = sweep_serve(spec, host=args.host, port=args.port,
                                  **_store_options(args))
    except KeyboardInterrupt:
        return 130
    return 1 if quarantined else 0


def _sweep_work_run(args: argparse.Namespace) -> int:
    from .sweeps import sweep_work

    executor = _executor_options(args)
    return sweep_work(
        args.queue, store_path=args.store, worker_id=args.worker_id,
        max_pool_restarts=args.max_pool_restarts,
        poll_interval=args.poll_interval, **executor,
    )


def _bench_run(args: argparse.Namespace) -> int:
    import json

    from .perf.bench import MAX_REGRESSION, compare, read_json, read_runs

    try:
        runs = read_runs(args.logs)
        records = (read_json(args.record, "benchmark record")
                   if args.record.exists() else [])
        spec = None if args.append else read_json(
            args.record.resolve().parent / "BENCHMARK.json",
            "benchmark spec")
    except ConfigurationError as error:
        print(f"repro-swarm bench: {error}", file=sys.stderr)
        return 1
    if not runs:
        print("repro-swarm bench: the logs hold no perfbench run",
              file=sys.stderr)
        return 1
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
    from .workloads.traces import WorkloadTrace

    config = config_from_args(args)
    overlay = cached_overlay(config.overlay_config())
    events = config.workload().materialize(overlay.address_array(),
                                           overlay.space)
    trace = WorkloadTrace(
        events, bits=config.bits, n_nodes=config.n_nodes,
        overlay_seed=config.overlay_seed,
    )
    trace.save(args.path)
    print(f"trace written to {args.path}: {trace.summary()}")
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    from .backends.fast import FastSimulation
    from .workloads.traces import TraceWorkload, WorkloadTrace

    trace = WorkloadTrace.load(args.path)
    header = trace.header
    config = config_from_args(
        args, n_nodes=header.n_nodes, bits=header.bits,
        overlay_seed=header.overlay_seed, n_files=len(trace),
    )
    result = FastSimulation(config).run(TraceWorkload(trace))
    print(f"replayed {args.path}: {trace.summary()}")
    print(result.summary())
    return 0


def _trace_record_dynamics(args: argparse.Namespace) -> int:
    from .scenarios.trace import record_dynamics

    config = config_from_args(args)
    stack = config.scenario_stack()
    assert stack is not None  # --scenario is required
    trace = record_dynamics(stack, config.scenario_context())
    trace.save(args.path)
    print(f"dynamics trace written to {args.path}: {trace.describe()}")
    return 0


def _trace_replay_dynamics(args: argparse.Namespace) -> int:
    from .backends.fast import FastSimulation
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
    config = config_from_args(
        args, n_nodes=header.n_nodes, bits=header.bits,
        overlay_seed=header.overlay_seed, scenario=spec,
    )
    result = FastSimulation(config).run()
    print(f"replaying dynamics from {args.path}: {header.describe()}")
    print(result.summary())
    return 0


def _serve_run(args: argparse.Namespace) -> int:
    from .serve import run_serve

    config = config_from_args(args)
    if config.scenario and args.epochs is None:
        raise ExperimentError(
            "--scenario serving needs --epochs: epoch schedules are "
            "sized up front (use the expected stream length in "
            "micro-epochs)"
        )
    with TextLines(args.input, "request stream") as source:
        run_serve(
            config, source, sys.stdout,
            max_batch=config.batch_files,
            flush_interval=args.flush_interval,
            n_epochs=args.epochs, batch_mode=args.batch,
        )
    return 0


def _trace_import_requests(args: argparse.Namespace) -> int:
    from .backends.fast import cached_overlay
    from .workloads.ingest import import_requests

    overlay = cached_overlay(config_from_args(args).overlay_config())
    with TextLines(args.log, "request log") as lines:
        summary = import_requests(lines, args.out, overlay=overlay)
    print(f"trace written to {args.out}: {summary}")
    return 0


def _trace_import_dynamics(args: argparse.Namespace) -> int:
    from .backends.fast import cached_overlay
    from .scenarios.ingest import import_dynamics

    overlay = cached_overlay(config_from_args(args).overlay_config())
    source_label = (
        "import:stdin" if args.log == "-"
        else f"import:{Path(args.log).name}"
    )
    with TextLines(args.log, "membership log") as lines:
        trace, summary = import_dynamics(
            lines, overlay=overlay, n_epochs=args.epochs,
            epoch_seconds=args.epoch_seconds,
            recompute_storers=args.recompute, source=source_label,
        )
    trace.save(args.out)
    print(f"dynamics trace written to {args.out}: {summary}")
    return 0


def _overlay_build(args: argparse.Namespace) -> int:
    from .kademlia.overlay import Overlay
    from .kademlia.topology import degree_stats

    overlay = Overlay.build(config_from_args(args).overlay_config())
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


def _list_run(args: argparse.Namespace) -> int:
    from .experiments.registry import list_experiments

    for spec in list_experiments():
        artifact = f" [{spec.paper_artifact}]" if spec.paper_artifact else ""
        print(f"{spec.name:<12} {spec.description}{artifact}")
    return 0


def _backends_run(args: argparse.Namespace) -> int:
    from .backends import backend_specs

    for name, description in backend_specs():
        print(f"{name:<12} {description}")
    return 0


def _experiments_run(args: argparse.Namespace) -> int:
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
    _write_report(args, "\n\n".join(outputs))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Any :class:`~repro.errors.ReproError` — a refused option value,
    input file or request line — ends the command with one
    argparse-style ``repro-swarm <command>: error: <message>`` line on
    stderr and exit status 2, not a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"{args.prog}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
