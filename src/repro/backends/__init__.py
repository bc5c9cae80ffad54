"""Simulation backends behind one protocol (`prepare -> run -> result`).

The registry maps names to interchangeable ways of executing the
paper's download simulation::

    from repro.backends import get_backend, run_simulation

    result = get_backend("fast").prepare(config).run()
    result = run_simulation(config, backend="reference")

Backend matrix:

========== ========================================================
name        engine
========== ========================================================
fast        batched numpy: whole-workload lockstep hop waves, with
            native path-caching and churn scenarios
time        time-domain event wheel over the same routing matrices:
            finite up/down bandwidth, concurrency caps, per-chunk
            latency samples (hop counters bit-identical to fast)
reference   object-oriented SwarmNetwork, full SWAP observability
flat        per-chunk flat reward on routed traffic (F1-ideal)
filecoin    storage-power block rewards + retrieval payments
tit_for_tat standalone BitTorrent choke-algorithm swarm
========== ========================================================

§V free riders are the ``freeriding`` scenario on any routing
backend (``scenario="freeriding:fraction=0.3"``), not a backend.

The protocol, registry, config and result types are imported with the
package; the implementation modules load on first use — when one of
their names is accessed or a backend they define is looked up by name
(:func:`~repro.backends.base.get_backend_class`).
"""

from .._lazy import lazy_exports
from .base import (
    SimulationBackend,
    available_backends,
    backend_specs,
    get_backend,
    get_backend_class,
    register_backend,
    run_simulation,
)
from .config import FastSimulationConfig
from .result import SimulationResult

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ["SimulationBackend", "available_backends", "backend_specs",
             "get_backend", "get_backend_class", "register_backend",
             "run_simulation"],
    "config": ["FastSimulationConfig"],
    "result": ["SimulationResult"],
    "fast": ["FastBackend", "FastSimulation", "NextHopTable",
             "cached_next_hop_table", "cached_overlay", "clear_caches"],
    "timed": ["FluidWheel", "TimeBackend", "TimedSimulation"],
    "reference": ["ReferenceBackend"],
    "baselines": ["FilecoinBackend", "FlatRewardBackend",
                  "TitForTatBackend"],
})
