"""Comparison-mechanism backends behind the simulation protocol.

The paper contrasts SWAP with BitTorrent tit-for-tat, Filecoin-style
storage rewards and idealized flat-rate rewards. These backends make
those comparisons runnable through the same
``prepare(config).run(workload)`` interface as the fast and reference
engines, each returning a :class:`SimulationResult` so the F1/F2
fairness metrics read out uniformly:

* ``flat`` — per-chunk reward on the real routed traffic (the
  F1-ideal: income exactly proportional to forwarded chunks);
* ``filecoin`` — retrieval-market payments to the serving storer plus
  epoch block rewards proportional to storage power;
* ``tit_for_tat`` — Cohen's choking algorithm in a standalone swarm
  (BitTorrent has no overlay routing; income is service received).

§V free riders are a scenario, not a backend: ``fast`` with
``scenario="freeriding:fraction=F"`` routes and counts their
downloads but pays their first hops nothing.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .._validation import require, require_int, require_positive
from ..baselines.tit_for_tat import TitForTatConfig, TitForTatSwarm
from ..errors import ConfigurationError
from .base import SimulationBackend, register_backend
from .config import FastSimulationConfig
from .fast import SimulationBoundBackend
from .result import SimulationResult

__all__ = [
    "FlatRewardBackend",
    "FilecoinBackend",
    "TitForTatBackend",
]


def _require_amount(value, name: str) -> None:
    """Refuse a reward or price that is not a finite number >= 0."""
    require(
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and math.isfinite(value) and value >= 0,
        f"{name} must be a finite non-negative number, got {value!r}",
    )


@register_backend
class FlatRewardBackend(SimulationBoundBackend):
    """Per-chunk reward: every forwarded chunk earns the same amount.

    F1 is zero by construction; F2 equals the inequality of the
    traffic itself — the proportional bound any real mechanism is
    measured against.
    """

    name = "flat"
    description = "per-chunk flat reward on routed traffic (F1-ideal)"

    def __init__(self, reward_per_chunk: float = 1.0) -> None:
        _require_amount(reward_per_chunk, "reward_per_chunk")
        self.reward_per_chunk = reward_per_chunk

    def run(self, workload=None) -> SimulationResult:
        self._require_prepared()
        assert self.simulation is not None
        result = self.simulation.run(workload)
        result.income = result.forwarded.astype(np.float64) * self.reward_per_chunk
        result.expenditure = np.zeros_like(result.income)
        return result


@register_backend
class FilecoinBackend(SimulationBoundBackend):
    """Filecoin-style rewards: retrieval deals plus storage-power blocks.

    Retrieval payments go to the node that *served* each chunk (the
    terminal storer); block rewards accrue per epoch to a winner
    sampled proportionally to storage power (here: the share of the
    address space a node stores), regardless of traffic — which is
    exactly why its bandwidth-fairness profile differs from SWAP's.
    """

    name = "filecoin"
    description = "storage-power block rewards + retrieval-market payments"

    def __init__(self, block_reward: float = 10.0, epoch_length: int = 100,
                 retrieval_price: float = 1.0, seed: int = 42) -> None:
        _require_amount(block_reward, "block_reward")
        _require_amount(retrieval_price, "retrieval_price")
        require_positive(require_int(epoch_length, "epoch_length"),
                         "epoch_length")
        require_int(seed, "seed")
        self.block_reward = block_reward
        self.epoch_length = epoch_length
        self.retrieval_price = retrieval_price
        self.seed = seed

    def prepare(self, config: FastSimulationConfig) -> "FilecoinBackend":
        if config.has_scenarios:
            # Served counts below assume every non-local chunk reaches
            # its storer; churn drops chunks and caching serves them
            # at the first hop, so the retrieval-market model would
            # pay for deliveries that never happened.
            raise ConfigurationError(
                f"the filecoin baseline does not support scenario "
                f"{config.scenario!r}"
            )
        super().prepare(config)
        return self

    def run(self, workload=None) -> SimulationResult:
        config = self._require_prepared()
        assert self.simulation is not None
        simulation = self.simulation
        started = time.perf_counter()
        if workload is None:
            workload = config.workload()
        # One flatten feeds both the routing and the served counts.
        result = simulation.new_result()
        file_origins, sizes, targets = simulation._flatten_workload(workload)
        result.files += len(sizes)
        simulation._route_slabs(file_origins, sizes, targets, result)

        # Served counts: terminal arrivals per node (a local hit pays
        # nobody).
        n = simulation.table.n_nodes
        storers = simulation.table.storer[targets]
        served = np.bincount(
            storers[storers != np.repeat(file_origins, sizes)], minlength=n)

        income = served.astype(np.float64) * self.retrieval_price
        power = np.bincount(
            simulation.table.storer, minlength=n
        ).astype(np.float64)
        epochs = result.chunks // self.epoch_length
        if epochs > 0 and self.block_reward > 0:
            rng = np.random.default_rng(self.seed)
            winners = rng.choice(n, size=epochs, p=power / power.sum())
            income += np.bincount(
                winners, minlength=n
            ).astype(np.float64) * self.block_reward
        result.income = income
        result.expenditure = np.zeros_like(income)
        result.elapsed_seconds = time.perf_counter() - started
        return result


@register_backend
class TitForTatBackend(SimulationBackend):
    """BitTorrent tit-for-tat in its own single-file swarm.

    Tit-for-tat has no overlay routing, so the download workload is
    not replayed; the swarm size derives from the configuration
    (capped — the pure-python choke loop is O(peers x view) per
    round). Income is service received (the only reward TFT pays) and
    ``forwarded`` is pieces uploaded, which slots into F1/F2.
    """

    name = "tit_for_tat"
    description = "standalone BitTorrent swarm with Cohen's choke algorithm"
    replays_workload = False

    #: Peer-count cap keeping the choke loop tractable.
    MAX_PEERS = 256

    swarm: TitForTatSwarm | None = None

    def __init__(self, swarm_config: TitForTatConfig | None = None) -> None:
        self._swarm_config = swarm_config

    def prepare(self, config: FastSimulationConfig) -> "TitForTatBackend":
        self.config = config
        swarm_config = self._swarm_config
        if swarm_config is None:
            swarm_config = TitForTatConfig(
                n_peers=min(config.n_nodes, self.MAX_PEERS),
                n_pieces=min(config.file_max, 200),
                seed=config.workload_seed,
            )
        self.swarm = TitForTatSwarm(swarm_config)
        return self

    def run(self, workload=None) -> SimulationResult:
        self._require_prepared()
        assert self.swarm is not None
        started = time.perf_counter()
        swarm = self.swarm
        swarm.run()
        uploaded = np.array(swarm.contributions(), dtype=np.int64)
        downloaded = np.array(swarm.incomes(), dtype=np.float64)
        n_pieces = swarm.config.n_pieces
        return SimulationResult(
            config=self.config,
            node_addresses=np.arange(len(swarm.peers), dtype=np.int64),
            forwarded=uploaded,
            first_hop=uploaded.copy(),
            income=downloaded,
            expenditure=np.zeros_like(downloaded),
            files=sum(
                1 for peer in swarm.peers if peer.is_seed(n_pieces)
            ),
            chunks=int(downloaded.sum()),
            total_hops=int(uploaded.sum()),
            elapsed_seconds=time.perf_counter() - started,
        )
