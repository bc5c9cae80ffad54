"""repro — Fair Incentivization of Bandwidth Sharing in Decentralized
Storage Networks (ICDCS 2022 reproduction).

A production-quality reproduction of Lakhani et al.'s study of
bandwidth incentives in the Swarm storage network. The library
provides:

* :mod:`repro.kademlia` — forwarding-Kademlia overlay substrate;
* :mod:`repro.core` — SWAP accounting, pricing, settlement, fairness
  metrics (Gini, Lorenz, the paper's F1/F2 properties);
* :mod:`repro.swarm` — reference Swarm network model (chunks, storage,
  retrieval, caching);
* :mod:`repro.engine` — the discrete-event scheduler behind the time
  backend and churn;
* :mod:`repro.backends` — interchangeable simulation backends behind
  one protocol (batched numpy, reference network, baselines) with a
  name registry;
* :mod:`repro.workloads` — download workload generation;
* :mod:`repro.baselines` — BitTorrent tit-for-tat, Filecoin-style and
  flat-rate comparison mechanisms;
* :mod:`repro.analysis` — Lorenz/histogram/report rendering;
* :mod:`repro.experiments` — one runner per paper table/figure and a
  vectorized simulator for paper-scale runs;
* :mod:`repro.sweeps` — parameter-grid x seed-replica sweep engine
  (serial or multiprocess, with 95% CIs and a resumable JSON store).

Quickstart::

    from repro import quick_simulation

    result = quick_simulation(bucket_size=4, originator_share=0.2,
                              n_files=200, seed=7)
    print(result.summary())
"""

from .errors import (
    AccountingError,
    AddressError,
    ConfigurationError,
    ExperimentError,
    InsufficientFundsError,
    OverlayError,
    ReproError,
    RoutingError,
    SettlementError,
    SimulationError,
    WorkloadError,
)

__version__ = "1.2.0"

__all__ = [
    "AccountingError",
    "AddressError",
    "ConfigurationError",
    "ExperimentError",
    "InsufficientFundsError",
    "OverlayError",
    "ReproError",
    "RoutingError",
    "SettlementError",
    "SimulationError",
    "WorkloadError",
    "quick_simulation",
    "__version__",
]


def quick_simulation(bucket_size: int = 4, originator_share: float = 1.0,
                     n_files: int = 100, n_nodes: int = 100,
                     seed: int = 42):
    """Run a small end-to-end Swarm bandwidth-incentive simulation.

    Convenience wrapper over :mod:`repro.backends`, kept because the
    README quickstart is written against it; returns a
    :class:`~repro.backends.result.SimulationResult`.
    """
    # Imported lazily so `import repro` stays cheap.
    from .backends import FastSimulation, FastSimulationConfig

    config = FastSimulationConfig(
        n_nodes=n_nodes,
        bucket_size=bucket_size,
        originator_share=originator_share,
        n_files=n_files,
        overlay_seed=seed,
        workload_seed=seed + 1,
    )
    return FastSimulation(config).run()
