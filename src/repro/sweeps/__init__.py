"""Parallel multi-seed sweep engine.

The paper reports single-seed point estimates; this package turns any
:class:`~repro.backends.config.FastSimulationConfig` experiment into a
replicated, parallelizable sweep:

* :mod:`~repro.sweeps.spec` — declarative :class:`SweepSpec` (field
  grid x :mod:`~repro.backends` registry names x seed replicas, with
  :class:`numpy.random.SeedSequence`-derived replica seeds);
* :mod:`~repro.sweeps.executors` — serial and spawn-safe
  process-pool execution with identical results;
* :mod:`~repro.sweeps.aggregate` — per-cell mean / std / 95% CI
  across replicas (forwarded chunks, Gini fairness, net balance);
* :mod:`~repro.sweeps.store` — deterministic, resumable, diffable
  JSON result store with git/seed provenance, durable (fsync'd)
  atomic saves, and best-effort salvage of corrupt files;
* :mod:`~repro.sweeps.resilience` — failure records, deterministic
  retry policy, and :class:`QueueState`, the one scheduler every
  executor leases points from (backoff, lease deadlines, attempt
  charging and the quarantine behind ``--max-retries`` /
  ``--keep-going``);
* :mod:`~repro.sweeps.chaos` — deterministic fault injection
  (exception / crash / kill / hang per ``(point_id, attempt)``) used
  to exercise every recovery path in tests and CI;
* :mod:`~repro.sweeps.engine` — :func:`run_sweep`, the entry point
  behind ``repro-swarm sweep`` and the replicated registry
  experiments in :mod:`repro.experiments.sweeps`;
* :mod:`~repro.sweeps.queue_daemon` — the stdlib HTTP front of that
  scheduler behind ``repro-swarm sweep-serve``;
* :mod:`~repro.sweeps.distributed` — :func:`sweep_work` pull-based
  hosts, the in-process :class:`DistributedExecutor` behind
  ``sweep --workers N``, and byte-identical shard-store merging via
  :meth:`SweepStore.merge <repro.sweeps.store.SweepStore.merge>`;
* :mod:`~repro.sweeps.progress` — the rate-limited
  ``completed/total · points/s · ETA`` stderr reporter shared by
  every executor.

The public names load on first use: importing this package imports
none of its submodules, so a sweep worker that imports
:mod:`~repro.sweeps.worker` never loads the HTTP queue, the
distributed executor or the aggregation layer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregate": ["CellSummary", "MetricSummary", "aggregate_records"],
    "chaos": ["Fault", "FaultPlan", "InjectedFault"],
    "distributed": ["DistributedExecutor", "sweep_serve", "sweep_work"],
    "engine": ["SweepResult", "outcome_record", "run_sweep", "sweep_status"],
    "executors": ["ProcessExecutor", "SerialExecutor", "SweepExecutor",
                  "make_executor", "resolve_jobs", "table_topologies"],
    "progress": ["ProgressReporter"],
    "queue_daemon": ["SweepQueueDaemon"],
    "resilience": ["PointFailure", "QueueState", "RetryPolicy",
                   "failure_digest"],
    "spec": ["SweepPoint", "SweepSpec", "parse_grid_arguments",
             "parse_grid_value", "replica_seeds", "sweepable_fields"],
    "store": ["SweepStore", "merge_provenance"],
    "worker": ["PointOutcome", "execute_point", "point_from_payload",
               "result_metrics"],
})
