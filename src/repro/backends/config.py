"""The unified simulation configuration all backends consume.

:class:`FastSimulationConfig` (the name predates the backend split and
is kept for compatibility) describes one paper-style experiment:
overlay shape, pricing, workload, and the network dynamics it runs
under. Dynamics are one ``scenario`` composition string, in the
grammar of :func:`repro.scenarios.parse.parse_scenario`, e.g.
``"churn:rate=0.1,recompute=true+caching:size=64"``;
:meth:`FastSimulationConfig.scenario_stack` parses it into the
:class:`~repro.scenarios.base.Scenario` the vectorized engine's epoch
loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._validation import require_fraction, require_int
from ..errors import ConfigurationError
from ..kademlia.buckets import BucketLimits
from ..kademlia.overlay import OverlayConfig
from ..workloads.distributions import OriginatorPool, UniformFileSize
from ..workloads.generators import DownloadWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.base import Scenario, ScenarioContext

__all__ = ["FastSimulationConfig"]


@dataclass(frozen=True)
class FastSimulationConfig:
    """One paper-style experiment configuration.

    Defaults reproduce the paper's setup; ``bucket_size`` and
    ``originator_share`` are the two swept parameters, ``bucket_zero``
    expresses the §V per-bucket ablation.

    ``scenario`` is the network dynamics (vectorized backend only): a
    composition string over the scenario library (churn, caching,
    freeriding, join, demand, trace), combined with ``+``. Path
    caching serves a retrieved chunk's later retrievals from the
    originator's first hop (paper §V's "reduced number of forwarded
    requests"), so pair it with a Zipf ``catalog_size`` for repeats;
    churn draws a fresh offline set per ``batch_files`` epoch.

    Time-domain extensions (the ``time`` backend; ignored by the
    timeless hop backends):

    * ``arrival_rate`` — mean file-download arrivals per second (a
      Poisson process drawn from ``arrival_seed``, separate from the
      workload stream); 0 releases every download at ``t=0``.
    * ``chunk_kib`` — payload size of one chunk transfer.
    * ``node_up_mbps`` / ``node_down_mbps`` — per-node uplink and
      downlink capacity in Mbit/s, fair-shared across a node's
      concurrent transfers; 0 means unbounded (useful alone and as
      the equivalence mode against the static kernel).
    * ``max_concurrent`` — per-node cap on simultaneous *outgoing*
      transfers; excess hops queue FIFO at the sender. 0 = no cap.
    * ``hop_latency_ms`` — fixed one-way per-hop propagation delay;
      a ``hops``-hop retrieval pays ``2 * hops`` of them (request out,
      data back).
    * ``time_quantum_ms`` — event-wheel completion slot width: fluid
      transfer completions are batched up to the next multiple, which
      bounds the number of bandwidth recomputations (coarser = faster,
      at ≤ one quantum of per-chunk latency error). 0 = exact.
    """

    n_nodes: int = 1000
    bits: int = 16
    bucket_size: int = 4
    bucket_zero: int | None = None
    originator_share: float = 1.0
    n_files: int = 10_000
    file_min: int = 100
    file_max: int = 1000
    overlay_seed: int = 42
    workload_seed: int = 7
    pricing: str = "xor"
    pricing_base: float = 1.0
    catalog_size: int = 0
    catalog_exponent: float = 1.0
    scenario: str = ""
    batch_files: int = 512
    arrival_rate: float = 0.0
    arrival_seed: int = 909
    chunk_kib: float = 4.0
    node_up_mbps: float = 0.0
    node_down_mbps: float = 0.0
    max_concurrent: int = 0
    hop_latency_ms: float = 0.0
    time_quantum_ms: float = 0.0

    def __post_init__(self) -> None:
        require_int(self.n_files, "n_files")
        require_fraction(self.originator_share, "originator_share")
        require_int(self.batch_files, "batch_files")
        if self.n_files < 1:
            raise ConfigurationError(f"n_files must be >= 1, got {self.n_files}")
        if self.batch_files < 1:
            raise ConfigurationError(
                f"batch_files must be >= 1, got {self.batch_files}"
            )
        if self.pricing not in ("xor", "proximity", "flat"):
            raise ConfigurationError(
                f"pricing must be 'xor', 'proximity' or 'flat', got "
                f"{self.pricing!r}"
            )
        require_int(self.max_concurrent, "max_concurrent")
        for name in ("arrival_rate", "chunk_kib", "node_up_mbps",
                     "node_down_mbps", "hop_latency_ms",
                     "time_quantum_ms"):
            value = getattr(self, name)
            if not value >= 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {value!r}"
                )
        if self.max_concurrent < 0:
            raise ConfigurationError(
                f"max_concurrent must be >= 0, got {self.max_concurrent}"
            )
        if self.chunk_kib == 0:
            raise ConfigurationError("chunk_kib must be positive")
        if not isinstance(self.scenario, str):
            raise ConfigurationError(
                f"scenario must be a composition string, got "
                f"{type(self.scenario).__name__}"
            )
        if self.scenario.strip():
            # Fail at configuration time (spec build, CLI parse) with
            # the grammar in the message, never inside a worker.
            from ..scenarios.parse import parse_scenario

            parse_scenario(self.scenario)

    @property
    def has_scenarios(self) -> bool:
        """Whether any network dynamics (scenarios) are active."""
        return bool(self.scenario.strip())

    def scenario_stack(self) -> "Scenario | None":
        """The parsed ``scenario``, or ``None`` for a static run."""
        from ..scenarios.parse import parse_scenario

        return parse_scenario(self.scenario) if self.has_scenarios else None

    def n_epochs(self) -> int:
        """Epochs the batched engine segments this workload into.

        One epoch per ``batch_files`` slab of the configured
        ``n_files`` — the schedule length scenarios are sized for,
        and the epoch count a dynamics trace recorded at this
        configuration carries in its header.
        """
        return -(-self.n_files // self.batch_files)

    def scenario_context(self) -> "ScenarioContext":
        """The scenario context this configuration runs schedules in."""
        from ..scenarios.base import ScenarioContext

        return ScenarioContext(
            n_nodes=self.n_nodes,
            n_epochs=self.n_epochs(),
            space_size=1 << self.bits,
            overlay_seed=self.overlay_seed,
        )

    def overlay_config(self) -> OverlayConfig:
        """The overlay this experiment runs on."""
        overrides = {} if self.bucket_zero is None else {0: self.bucket_zero}
        return OverlayConfig(
            n_nodes=self.n_nodes,
            bits=self.bits,
            limits=BucketLimits(default=self.bucket_size, overrides=overrides),
            seed=self.overlay_seed,
        )

    def workload(self) -> DownloadWorkload:
        """The download workload this experiment replays."""
        return DownloadWorkload(
            n_files=self.n_files,
            originators=OriginatorPool(share=self.originator_share),
            file_size=UniformFileSize(low=self.file_min, high=self.file_max),
            seed=self.workload_seed,
            catalog_size=self.catalog_size,
            catalog_exponent=self.catalog_exponent,
        )
