"""The bandwidth incentive mechanism assembled (paper §III-B).

:class:`SwapIncentives` is the composition the paper simulates: a
pricing strategy, a payment policy, the SWAP ledger, and cheque
settlement. Feeding it the route of every chunk retrieval produces
exactly the per-node quantities behind the paper's evaluation:

* chunks forwarded (Table I, Fig. 4),
* chunks served as first hop — the paid subset (F1, Fig. 6),
* income in accounting units (F2, Fig. 5).

A payer whose chequebook cannot cover an obligation *defaults*: the
debt stays on the SWAP channel (to amortize or trigger disconnection)
and the default is counted. Free-rider experiments are expressed by
giving selected nodes a zero-deposit chequebook.

The comparison mechanisms (flat, Filecoin-style, tit-for-tat) are
simulation backends (:mod:`repro.backends.baselines`) scored on the
same per-node vectors; this class is the reference network's
route-by-route SWAP accounting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from ..errors import InsufficientFundsError
from ..kademlia.routing import Route
from .fairness import FairnessReport, evaluate_fairness
from .policies import PaymentPolicy, ZeroProximityPolicy
from .pricing import PricingStrategy
from .settlement import SettlementService
from .swap import SwapLedger, SwapThresholds

__all__ = ["SwapIncentives"]


class SwapIncentives:
    """Swarm's SWAP-based bandwidth incentives.

    Parameters
    ----------
    pricing:
        Price of each transfer (default policy priced per chunk).
    policy:
        Which hops are paid; defaults to Swarm's zero-proximity rule.
    thresholds:
        SWAP channel limits.
    transaction_fee:
        Cost charged per cashed cheque, tracked for §V overhead
        analysis.
    """

    def __init__(self, pricing: PricingStrategy,
                 policy: PaymentPolicy | None = None,
                 thresholds: SwapThresholds | None = None,
                 transaction_fee: float = 0.0) -> None:
        self.pricing = pricing
        self.policy = policy if policy is not None else ZeroProximityPolicy()
        self.ledger = SwapLedger(thresholds)
        self.settlement = SettlementService(
            self.ledger, transaction_fee=transaction_fee
        )
        self.defaults: defaultdict[int, int] = defaultdict(int)
        self.routes_processed: int = 0

    def set_deposit(self, node: int, deposit: float) -> None:
        """Limit a node's ability to pay (0 makes it a free-rider)."""
        self.settlement.set_deposit(node, deposit)

    def process_route(self, route: Route) -> None:
        """Account for one retrieval: service, counters, settlements.

        Each hop is bandwidth service by the downstream node for its
        upstream requester. Hops covered by the payment policy are
        *purchased*: paid immediately via the chequebook and never
        added to channel debt (paper §III-B: "use paid settlement for
        the requests generated by the originator itself to nodes in
        the zero-proximity"). All other hops accumulate SWAP debt that
        the time-based amortization later forgives. A payer that
        cannot cover a purchase defaults — the service then falls back
        to channel debt like any unpaid hop.
        """
        self.routes_processed += 1
        paid_edges = {
            (payment.payer, payment.payee): payment.amount
            for payment in self.policy.payments(route, self.pricing)
        }
        for upstream, server in zip(route.path, route.path[1:]):
            units = self.pricing.price(server, route.target)
            self.ledger.record_forwarded_chunk(
                server, as_first_hop=(upstream == route.originator)
            )
            amount = paid_edges.get((upstream, server))
            if amount is not None:
                try:
                    self.settlement.settle_direct(upstream, server, amount)
                    continue
                except InsufficientFundsError:
                    self.defaults[upstream] += 1
            self.ledger.record_service(server, upstream, units)

    def amortize(self, units: float) -> float:
        """Forgive up to *units* of debt on every channel."""
        return self.ledger.amortize_all(units)

    def incomes(self, nodes: Sequence[int]) -> list[float]:
        """Income in accounting units per node (the F2 reward)."""
        return self.ledger.income_vector(list(nodes))

    def contributions(self, nodes: Sequence[int]) -> list[float]:
        """Chunks forwarded per node (the contributed bandwidth)."""
        return [float(c) for c in self.ledger.forwarded_vector(list(nodes))]

    def fairness(self, nodes: Sequence[int]) -> FairnessReport:
        """Evaluate the paper's F1/F2 properties with income as reward."""
        return evaluate_fairness(self.contributions(nodes), self.incomes(nodes))

    def paper_f1_report(self, nodes: Sequence[int]) -> FairnessReport:
        """F1 exactly as Fig. 6 computes it.

        Fig. 6 relates *total* forwarded chunks to forwarded chunks
        *as the first hop* (the paid ones), i.e. the contribution is
        total forwarding work and the reward proxy is the number of
        paid chunks rather than income in units.
        """
        return evaluate_fairness(
            [float(c) for c in self.ledger.forwarded_vector(list(nodes))],
            [float(c) for c in self.ledger.first_hop_vector(list(nodes))],
        )
