"""SWAP — the Swarm Accounting Protocol (paper §III-B, Fig. 2).

SWAP keeps, for every connected pair of peers, the *relative
bandwidth balance*: how many accounting units of service one peer has
provided to the other beyond what it consumed. Within balance limits
the pair simply trades service for service. When one side's debt hits
the *payment threshold* the creditor must be compensated in BZZ (a
cheque, see :mod:`repro.core.settlement`); if debt instead reaches the
*disconnect threshold* without settlement the creditor stops serving.
Balances also drift back toward zero over time ("time-based
amortization"), which is the free-tier bandwidth the paper describes.

:class:`SwapLedger` is the global bookkeeping object shared by the
reference simulator: it stores all pairwise channels plus per-node
aggregate counters (service provided/consumed, income, expenditure)
that the fairness metrics consume.

Sign convention: a channel between ``a`` and ``b`` (with ``a < b``)
stores ``balance = units a provided to b - units b provided to a``;
positive balance means **b owes a**.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .._validation import require_non_negative, require_positive
from ..errors import AccountingError

__all__ = ["SwapChannel", "SwapThresholds", "SwapLedger"]


@dataclass(frozen=True)
class SwapThresholds:
    """Balance limits of a SWAP channel.

    ``payment`` is the debt at which settlement is due; ``disconnect``
    is the debt at which the creditor refuses further service (Swarm
    sets it above the payment threshold to leave room for in-flight
    messages).
    """

    payment: float = 100.0
    disconnect: float = 150.0

    def __post_init__(self) -> None:
        require_positive(self.payment, "payment threshold")
        require_positive(self.disconnect, "disconnect threshold")
        if self.disconnect < self.payment:
            raise AccountingError(
                "disconnect threshold must be >= payment threshold, got "
                f"{self.disconnect} < {self.payment}"
            )


@dataclass
class SwapChannel:
    """Pairwise accounting state between two peers.

    The channel is symmetric storage for an antisymmetric quantity:
    ``balance_of(a)`` is how much the *other* peer owes ``a``.
    """

    low: int
    high: int
    balance: float = 0.0
    transferred_units: float = 0.0

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise AccountingError(
                f"channel endpoints must satisfy low < high, got "
                f"({self.low}, {self.high})"
            )

    def _check_member(self, peer: int) -> None:
        if peer not in (self.low, self.high):
            raise AccountingError(
                f"peer {peer} is not on channel ({self.low}, {self.high})"
            )

    def balance_of(self, peer: int) -> float:
        """Units the counterparty owes *peer* (negative = peer owes)."""
        self._check_member(peer)
        return self.balance if peer == self.low else -self.balance

    def counterparty(self, peer: int) -> int:
        """The other endpoint of the channel."""
        self._check_member(peer)
        return self.high if peer == self.low else self.low

    def provide(self, provider: int, units: float) -> None:
        """Record that *provider* served *units* to the counterparty."""
        require_positive(units, "units")
        self._check_member(provider)
        self.transferred_units += units
        if provider == self.low:
            self.balance += units
        else:
            self.balance -= units

    def settle(self, creditor: int, amount: float) -> None:
        """Reduce the debt owed to *creditor* by *amount* (a payment).

        Settling more than is owed would flip the channel into credit
        bought in advance; Swarm cheques only cover existing debt, so
        overshoot raises.
        """
        require_positive(amount, "amount")
        owed = self.balance_of(creditor)
        if amount > owed + 1e-9:
            raise AccountingError(
                f"cannot settle {amount} on channel ({self.low}, {self.high}); "
                f"only {owed} is owed to {creditor}"
            )
        if creditor == self.low:
            self.balance -= amount
        else:
            self.balance += amount

    def amortize(self, units: float) -> float:
        """Move the balance toward zero by at most *units*.

        Returns the amount actually forgiven. This is the time-based
        amortization of §III-B: every channel leaks a bounded amount of
        free bandwidth per time unit.
        """
        require_non_negative(units, "units")
        forgiven = min(abs(self.balance), units)
        if self.balance > 0:
            self.balance -= forgiven
        else:
            self.balance += forgiven
        return forgiven


class SwapLedger:
    """All SWAP channels of a network plus per-node aggregates.

    Aggregates maintained per node address:

    * ``service_provided`` / ``service_consumed`` — accounting units of
      bandwidth served/used, regardless of payment;
    * ``income`` / ``expenditure`` — BZZ actually settled;
    * ``chunks_forwarded`` / ``chunks_as_first_hop`` — the two counters
      behind the paper's Table I, Fig. 4 and F1.
    """

    def __init__(self, thresholds: SwapThresholds | None = None) -> None:
        self.thresholds = thresholds if thresholds is not None else SwapThresholds()
        self._channels: dict[tuple[int, int], SwapChannel] = {}
        self.service_provided: defaultdict[int, float] = defaultdict(float)
        self.service_consumed: defaultdict[int, float] = defaultdict(float)
        self.income: defaultdict[int, float] = defaultdict(float)
        self.expenditure: defaultdict[int, float] = defaultdict(float)
        self.chunks_forwarded: defaultdict[int, int] = defaultdict(int)
        self.chunks_as_first_hop: defaultdict[int, int] = defaultdict(int)
        self.total_amortized: float = 0.0

    # ------------------------------------------------------------------
    # Channels

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        if a == b:
            raise AccountingError(f"no SWAP channel from {a} to itself")
        return (a, b) if a < b else (b, a)

    def channel(self, a: int, b: int) -> SwapChannel:
        """The channel between *a* and *b*, created on first use."""
        key = self._key(a, b)
        channel = self._channels.get(key)
        if channel is None:
            channel = SwapChannel(low=key[0], high=key[1])
            self._channels[key] = channel
        return channel

    def channels(self) -> list[SwapChannel]:
        """All channels that have ever carried traffic."""
        return list(self._channels.values())

    def balance(self, peer: int, counterparty: int) -> float:
        """Units *counterparty* owes *peer* (0 for untouched pairs)."""
        key = self._key(peer, counterparty)
        channel = self._channels.get(key)
        if channel is None:
            return 0.0
        return channel.balance_of(peer)

    # ------------------------------------------------------------------
    # Recording traffic

    def record_service(self, provider: int, consumer: int,
                       units: float) -> None:
        """Record bandwidth service on the pair's channel.

        Pure accounting — no payment. Debt accumulates on the channel
        and in the per-node aggregates.
        """
        self.channel(provider, consumer).provide(provider, units)
        self.service_provided[provider] += units
        self.service_consumed[consumer] += units

    def would_disconnect(self, provider: int, consumer: int,
                         units: float) -> bool:
        """Whether serving *units* more would breach the disconnect limit."""
        debt = self.balance(provider, consumer)
        return debt + units > self.thresholds.disconnect

    def pay(self, payer: int, payee: int, amount: float) -> None:
        """Settle *amount* of the payer's debt with a BZZ transfer.

        Updates both the channel and the income/expenditure
        aggregates. The caller (a payment policy or chequebook) decides
        when and how much. Settling more than the outstanding debt
        raises; use :meth:`pay_direct` for per-request purchases that
        bypass the channel.
        """
        self.check_pay(payer, payee, amount)
        self.channel(payer, payee).settle(payee, amount)
        self.income[payee] += amount
        self.expenditure[payer] += amount

    def pay_direct(self, payer: int, payee: int, amount: float) -> None:
        """Record a direct purchase of service, outside the channel.

        This is the paper's default for originator-generated requests
        to the zero-proximity node: the request is *paid for*, not
        accumulated as SWAP debt, so the channel balance is untouched
        while service and income aggregates are updated.
        """
        self.check_pay_direct(payer, payee, amount)
        self.service_provided[payee] += amount
        self.service_consumed[payer] += amount
        self.income[payee] += amount
        self.expenditure[payer] += amount

    def check_pay(self, payer: int, payee: int, amount: float) -> None:
        """Raise what :meth:`pay` would raise, booking nothing."""
        require_positive(amount, "amount")
        owed = self.balance(payee, payer)
        if amount > owed + 1e-9:
            raise AccountingError(
                f"cannot settle {amount} from {payer} to {payee}; only "
                f"{owed} is owed to {payee}"
            )

    def check_pay_direct(self, payer: int, payee: int,
                         amount: float) -> None:
        """Raise what :meth:`pay_direct` would raise, booking nothing."""
        require_positive(amount, "amount")
        if payer == payee:
            raise AccountingError(f"no payment from {payer} to itself")

    def record_forwarded_chunk(self, node: int, *,
                               as_first_hop: bool = False) -> None:
        """Count one chunk transmission by *node* (Table I unit)."""
        self.chunks_forwarded[node] += 1
        if as_first_hop:
            self.chunks_as_first_hop[node] += 1

    # ------------------------------------------------------------------
    # Amortization

    def amortize_all(self, units: float) -> float:
        """Apply time-based amortization of *units* to every channel.

        Returns the total debt forgiven across the network.
        """
        require_non_negative(units, "units")
        forgiven = sum(
            channel.amortize(units) for channel in self._channels.values()
        )
        self.total_amortized += forgiven
        return forgiven

    # ------------------------------------------------------------------
    # Views for the fairness metrics

    def income_vector(self, nodes: list[int]) -> list[float]:
        """Income per node, aligned with *nodes* (F2 input)."""
        return [self.income[node] for node in nodes]

    def forwarded_vector(self, nodes: list[int]) -> list[int]:
        """Forwarded-chunk count per node, aligned with *nodes*."""
        return [self.chunks_forwarded[node] for node in nodes]

    def first_hop_vector(self, nodes: list[int]) -> list[int]:
        """First-hop (paid) chunk count per node, aligned with *nodes*."""
        return [self.chunks_as_first_hop[node] for node in nodes]
