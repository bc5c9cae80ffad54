"""Network churn: nodes leaving and joining (paper §II).

The paper motivates incentives partly as a tool to "decrease churn
(by staying active in the network)" but keeps its own overlays static.
This module adds the missing dynamic-membership substrate so churn
experiments are possible:

* :class:`ChurnModel` — exponential session/intersession times drive
  leave and (re)join events on a discrete-event scheduler;
* :func:`depart` / :func:`rejoin` — routing-table surgery: a leaving
  node is removed from every peer's buckets; a joining node rebuilds
  its own table from the live population and announces itself to the
  peers that would have selected it (capacity permitting).

The overlay's routing-table objects are mutated in place; the
:class:`~repro.kademlia.routing.Router` then routes over the live
population only. The overlay's edge list, and with it its
fingerprint, degrees, serialized form and next-hop table, stays as
built (see :class:`~repro.kademlia.overlay.Overlay`), so churn runs
on an overlay of its own (``run_churn`` builds one per scenario),
never on one a cache or a fast simulation shares. Routes targeting
addresses whose storer is offline surface as fallbacks/misses, which
is exactly the availability signal churn experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import require_positive
from ..engine.des import EventScheduler
from ..errors import ConfigurationError, OverlayError
from ..kademlia.overlay import Overlay

__all__ = ["ChurnModel", "ChurnStats", "depart", "rejoin"]


def depart(overlay: Overlay, node: int) -> int:
    """Remove *node* from every live peer's routing table.

    Returns the number of tables the node was evicted from. The
    node's own table is left intact so a later :func:`rejoin` can
    restore it cheaply (real Swarm nodes keep their table across
    restarts).
    """
    if node not in overlay:
        raise OverlayError(f"no node at address {node}")
    evictions = 0
    for owner in overlay.addresses:
        if owner == node:
            continue
        table = overlay.table(owner)
        if node in table:
            table.remove(node)
            evictions += 1
    return evictions


def rejoin(overlay: Overlay, node: int, live: set[int]) -> int:
    """Re-announce *node* to the live population.

    The node is offered to every live peer's appropriate bucket (the
    bucket may be full — then the peer ignores it, like real Kademlia
    tables do) and the node's own table drops peers that died while it
    was away. Returns the number of tables that accepted the node.
    """
    if node not in overlay:
        raise OverlayError(f"no node at address {node}")
    acceptances = 0
    for owner in live:
        if owner == node:
            continue
        if overlay.table(owner).add(node):
            acceptances += 1
    own_table = overlay.table(node)
    for peer in list(own_table):
        if peer not in live:
            own_table.remove(peer)
    return acceptances


@dataclass
class ChurnStats:
    """Aggregate churn telemetry."""

    departures: int = 0
    rejoins: int = 0
    evictions: int = 0
    acceptances: int = 0

    def __str__(self) -> str:
        return (
            f"{self.departures} departures, {self.rejoins} rejoins, "
            f"{self.evictions} table evictions, "
            f"{self.acceptances} table acceptances"
        )


@dataclass
class ChurnModel:
    """Exponential on/off churn over an overlay.

    Each node alternates online sessions (mean ``mean_session``) and
    offline periods (mean ``mean_downtime``). ``protected_fraction``
    of nodes never churn, modelling stable infrastructure peers.
    Events run on an :class:`EventScheduler`; the live set is exposed
    for workload generators to draw originators from.
    """

    overlay: Overlay
    mean_session: float = 100.0
    mean_downtime: float = 20.0
    protected_fraction: float = 0.2
    seed: int = 99
    stats: ChurnStats = field(default_factory=ChurnStats)

    def __post_init__(self) -> None:
        require_positive(self.mean_session, "mean_session")
        require_positive(self.mean_downtime, "mean_downtime")
        if not 0.0 <= self.protected_fraction <= 1.0:
            raise ConfigurationError(
                f"protected_fraction must be in [0, 1], got "
                f"{self.protected_fraction}"
            )
        self._rng = np.random.default_rng(self.seed)
        addresses = list(self.overlay.addresses)
        n_protected = round(self.protected_fraction * len(addresses))
        protected = self._rng.choice(
            np.asarray(addresses), size=n_protected, replace=False
        )
        self.protected: set[int] = {int(a) for a in protected}
        self.live: set[int] = set(addresses)

    @property
    def live_fraction(self) -> float:
        """Fraction of all nodes currently online."""
        return len(self.live) / len(self.overlay)

    def live_array(self) -> np.ndarray:
        """Online node addresses (for originator sampling)."""
        return np.fromiter(self.live, dtype=np.uint64, count=len(self.live))

    def is_live(self, node: int) -> bool:
        """Whether *node* is currently online."""
        return node in self.live

    def install(self, scheduler: EventScheduler) -> None:
        """Schedule the first departure of every churning node."""
        for node in self.overlay.addresses:
            if node in self.protected:
                continue
            delay = float(self._rng.exponential(self.mean_session))
            scheduler.schedule_in(
                delay, self._make_departure(node), name=f"depart-{node}"
            )

    def _make_departure(self, node: int):
        def handler(scheduler: EventScheduler, time: float) -> None:
            if node not in self.live:
                return
            self.live.discard(node)
            self.stats.departures += 1
            self.stats.evictions += depart(self.overlay, node)
            downtime = float(self._rng.exponential(self.mean_downtime))
            scheduler.schedule_in(
                downtime, self._make_rejoin(node), name=f"rejoin-{node}"
            )
        return handler

    def _make_rejoin(self, node: int):
        def handler(scheduler: EventScheduler, time: float) -> None:
            if node in self.live:
                return
            self.live.add(node)
            self.stats.rejoins += 1
            self.stats.acceptances += rejoin(self.overlay, node, self.live)
            session = float(self._rng.exponential(self.mean_session))
            scheduler.schedule_in(
                session, self._make_departure(node), name=f"depart-{node}"
            )
        return handler
