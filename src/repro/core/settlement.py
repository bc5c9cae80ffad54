"""Cheque-based settlement (paper §III-B step 3b: "send crypto-asset").

When SWAP debt must be settled, Swarm peers do not send on-chain
transactions per chunk; the debtor issues a *cheque* against its
chequebook contract and the creditor may cash it at any time. This
module models that layer:

* :class:`Cheque` — a cumulative-amount promissory note from issuer to
  beneficiary (cumulative amounts make lost/reordered cheques
  harmless: only the latest matters, exactly like Swarm's chequebook).
* :class:`Chequebook` — one node's book: deposit, issued cumulative
  totals per beneficiary, bounce detection.
* :class:`SettlementService` — network-wide registry wiring cheques to
  the :class:`~repro.core.swap.SwapLedger`, tracking transaction
  counts and fees so experiments can report the §V overhead trade-off
  ("the transaction cost for receiving the reward might be more than
  the reward amount").
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import require_non_negative, require_positive
from ..errors import InsufficientFundsError, SettlementError
from .swap import SwapLedger

__all__ = ["Cheque", "Chequebook", "SettlementService", "SettlementStats"]


@dataclass(frozen=True)
class Cheque:
    """A cumulative cheque from *issuer* to *beneficiary*.

    ``cumulative_amount`` is the total ever promised to this
    beneficiary, not the increment; ``serial`` increases per issue.
    """

    issuer: int
    beneficiary: int
    cumulative_amount: float
    serial: int

    def __post_init__(self) -> None:
        if self.issuer == self.beneficiary:
            raise SettlementError("a cheque to oneself is meaningless")
        require_positive(self.cumulative_amount, "cumulative_amount")
        if self.serial < 1:
            raise SettlementError(f"serial must be >= 1, got {self.serial}")


class Chequebook:
    """One node's chequebook: deposit plus per-beneficiary tallies.

    The deposit bounds the total value of outstanding (uncashed)
    promises; issuing beyond it raises
    :class:`~repro.errors.InsufficientFundsError`, which is how
    free-rider experiments model peers that cannot pay.
    """

    def __init__(self, owner: int, deposit: float = float("inf")) -> None:
        require_non_negative(
            deposit if deposit != float("inf") else 0.0, "deposit"
        )
        self.owner = owner
        self.deposit = deposit
        self._promised: dict[int, float] = {}
        self._cashed: dict[int, float] = {}
        self._serials: dict[int, int] = {}

    @property
    def total_promised(self) -> float:
        """Sum of cumulative promises across beneficiaries."""
        return sum(self._promised.values())

    @property
    def total_cashed(self) -> float:
        """Sum of amounts beneficiaries have already cashed."""
        return sum(self._cashed.values())

    @property
    def outstanding(self) -> float:
        """Promised but not yet cashed."""
        return self.total_promised - self.total_cashed

    def promised_to(self, beneficiary: int) -> float:
        """Cumulative amount promised to one beneficiary."""
        return self._promised.get(beneficiary, 0.0)

    def issue(self, beneficiary: int, amount: float) -> Cheque:
        """Issue a cheque increasing the promise by *amount*.

        Raises :class:`InsufficientFundsError` when the new total of
        promises would exceed the deposit.
        """
        self._check_issue(beneficiary, amount)
        cumulative = self.promised_to(beneficiary) + amount
        serial = self._serials.get(beneficiary, 0) + 1
        self._promised[beneficiary] = cumulative
        self._serials[beneficiary] = serial
        return Cheque(
            issuer=self.owner,
            beneficiary=beneficiary,
            cumulative_amount=cumulative,
            serial=serial,
        )

    def _check_issue(self, beneficiary: int, amount: float) -> float:
        """Raise what :meth:`issue` would raise, changing nothing.

        Returns the increment that cashing the cheque would pay out.
        """
        require_positive(amount, "amount")
        if beneficiary == self.owner:
            raise SettlementError("cannot issue a cheque to oneself")
        new_total = self.total_promised + amount
        if new_total > self.deposit:
            raise InsufficientFundsError(
                f"node {self.owner} cannot promise {amount}: deposit "
                f"{self.deposit} < outstanding promises {new_total}"
            )
        cumulative = self.promised_to(beneficiary) + amount
        return max(0.0, cumulative - self._cashed.get(beneficiary, 0.0))

    def cash(self, cheque: Cheque) -> float:
        """Cash *cheque*; return the increment actually paid out.

        Cashing an outdated cheque (lower cumulative amount than
        already cashed) pays nothing, mirroring the chequebook
        contract's last-cheque-wins rule.
        """
        if cheque.issuer != self.owner:
            raise SettlementError(
                f"cheque issued by {cheque.issuer} cashed against "
                f"chequebook of {self.owner}"
            )
        if cheque.cumulative_amount > self.promised_to(cheque.beneficiary):
            raise SettlementError(
                "cheque exceeds the issuer's recorded promise: "
                f"{cheque.cumulative_amount} > "
                f"{self.promised_to(cheque.beneficiary)}"
            )
        already = self._cashed.get(cheque.beneficiary, 0.0)
        increment = max(0.0, cheque.cumulative_amount - already)
        if increment > 0:
            self._cashed[cheque.beneficiary] = cheque.cumulative_amount
        return increment


@dataclass
class SettlementStats:
    """Network-wide settlement overhead counters (paper §V)."""

    cheques_issued: int = 0
    cheques_cashed: int = 0
    value_settled: float = 0.0
    fees_paid: float = 0.0


class SettlementService:
    """Wires chequebooks to a :class:`SwapLedger`.

    ``transaction_fee`` models the on-chain cost of cashing a cheque;
    the §V discussion notes small rewards can be eaten by this fee, so
    experiments can read ``stats.fees_paid`` against node income.
    """

    def __init__(self, ledger: SwapLedger, *,
                 transaction_fee: float = 0.0,
                 default_deposit: float = float("inf")) -> None:
        require_non_negative(transaction_fee, "transaction_fee")
        self.ledger = ledger
        self.transaction_fee = transaction_fee
        self.default_deposit = default_deposit
        self._books: dict[int, Chequebook] = {}
        self.stats = SettlementStats()

    def chequebook(self, owner: int) -> Chequebook:
        """The owner's chequebook, created with the default deposit."""
        book = self._books.get(owner)
        if book is None:
            book = Chequebook(owner, self.default_deposit)
            self._books[owner] = book
        return book

    def set_deposit(self, owner: int, deposit: float) -> None:
        """Fund (or limit) a node's chequebook before the run."""
        self.chequebook(owner).deposit = deposit

    def settle(self, payer: int, payee: int, amount: float) -> Cheque:
        """Issue and immediately cash a cheque settling SWAP debt.

        The combined operation the reference simulator uses: the payer
        issues, the payee cashes, the ledger records the transfer, the
        payee bears the transaction fee (tracked, not deducted from
        ledger income, so fairness metrics stay on gross income as in
        the paper).
        """
        return self._transfer(payer, payee, amount, self.ledger.pay,
                              self.ledger.check_pay)

    def settle_direct(self, payer: int, payee: int, amount: float) -> Cheque:
        """Issue and cash a cheque for a per-request purchase.

        Unlike :meth:`settle` this does not reduce channel debt — it
        pays for service that was never added to the channel (the
        paper's paid zero-proximity requests).
        """
        return self._transfer(payer, payee, amount, self.ledger.pay_direct,
                              self.ledger.check_pay_direct)

    def _transfer(self, payer: int, payee: int, amount: float,
                  ledger_op, ledger_check) -> Cheque:
        """Issue, cash and book a cheque, or refuse it changing nothing.

        The chequebook and the ledger both check before anything is
        written, so a refused transfer leaves the chequebook, the
        stats and the ledger as they were.
        """
        increment = self.chequebook(payer)._check_issue(payee, amount)
        if increment > 0:
            ledger_check(payer, payee, increment)
        cheque = self.chequebook(payer).issue(payee, amount)
        self.stats.cheques_issued += 1
        increment = self.chequebook(payer).cash(cheque)
        if increment > 0:
            ledger_op(payer, payee, increment)
            self.stats.cheques_cashed += 1
            self.stats.value_settled += increment
            self.stats.fees_paid += self.transaction_fee
        return cheque
