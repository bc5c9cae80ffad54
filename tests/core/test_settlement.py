"""Unit tests for cheque settlement (repro.core.settlement)."""

from __future__ import annotations

import pytest

from repro.core.settlement import (
    Cheque,
    Chequebook,
    SettlementService,
    SettlementStats,
)
from repro.core.swap import SwapLedger
from repro.errors import (
    AccountingError,
    InsufficientFundsError,
    SettlementError,
)


class TestCheque:
    def test_self_cheque_rejected(self):
        with pytest.raises(SettlementError):
            Cheque(issuer=1, beneficiary=1, cumulative_amount=1.0, serial=1)

    def test_nonpositive_amount_rejected(self):
        with pytest.raises(Exception):
            Cheque(issuer=1, beneficiary=2, cumulative_amount=0.0, serial=1)

    def test_bad_serial_rejected(self):
        with pytest.raises(SettlementError):
            Cheque(issuer=1, beneficiary=2, cumulative_amount=1.0, serial=0)


class TestChequebookIssue:
    def test_cumulative_amounts(self):
        book = Chequebook(owner=1)
        first = book.issue(2, 5.0)
        second = book.issue(2, 3.0)
        assert first.cumulative_amount == 5.0
        assert second.cumulative_amount == 8.0
        assert second.serial == 2
        assert book.promised_to(2) == 8.0

    def test_separate_beneficiaries(self):
        book = Chequebook(owner=1)
        book.issue(2, 5.0)
        book.issue(3, 1.0)
        assert book.promised_to(2) == 5.0
        assert book.promised_to(3) == 1.0
        assert book.total_promised == 6.0

    def test_deposit_bounds_promises(self):
        book = Chequebook(owner=1, deposit=10.0)
        book.issue(2, 7.0)
        with pytest.raises(InsufficientFundsError):
            book.issue(3, 4.0)

    def test_zero_deposit_always_bounces(self):
        book = Chequebook(owner=1, deposit=0.0)
        with pytest.raises(InsufficientFundsError):
            book.issue(2, 0.001)

    def test_self_issue_rejected(self):
        with pytest.raises(SettlementError):
            Chequebook(owner=1).issue(1, 1.0)


class TestChequebookCash:
    def test_cash_pays_increment(self):
        book = Chequebook(owner=1)
        cheque = book.issue(2, 5.0)
        assert book.cash(cheque) == 5.0
        assert book.total_cashed == 5.0
        assert book.outstanding == 0.0

    def test_outdated_cheque_pays_nothing(self):
        book = Chequebook(owner=1)
        old = book.issue(2, 5.0)
        new = book.issue(2, 3.0)
        assert book.cash(new) == 8.0
        assert book.cash(old) == 0.0

    def test_wrong_book_rejected(self):
        book = Chequebook(owner=1)
        cheque = book.issue(2, 5.0)
        with pytest.raises(SettlementError, match="chequebook of"):
            Chequebook(owner=9).cash(cheque)

    def test_outstanding_is_promised_less_cashed(self):
        book = Chequebook(owner=1)
        first = book.issue(2, 3.0)
        book.issue(5, 4.0)
        book.cash(first)
        assert book.promised_to(2) == 3.0
        assert book.promised_to(5) == 4.0
        assert book.promised_to(9) == 0.0
        assert book.total_promised == 7.0
        assert book.total_cashed == 3.0
        assert book.outstanding == 4.0

    def test_forged_amount_rejected(self):
        book = Chequebook(owner=1)
        book.issue(2, 5.0)
        forged = Cheque(issuer=1, beneficiary=2, cumulative_amount=50.0,
                        serial=7)
        with pytest.raises(SettlementError, match="exceeds"):
            book.cash(forged)


class TestSettlementService:
    def test_settle_clears_debt_and_pays(self):
        ledger = SwapLedger()
        service = SettlementService(ledger)
        ledger.record_service(provider=1, consumer=2, units=10.0)
        service.settle(payer=2, payee=1, amount=10.0)
        assert ledger.balance(1, 2) == pytest.approx(0.0)
        assert ledger.income[1] == 10.0
        assert service.stats.cheques_issued == 1
        assert service.stats.cheques_cashed == 1
        assert service.stats.value_settled == 10.0

    def test_settle_direct_leaves_channel_alone(self):
        ledger = SwapLedger()
        service = SettlementService(ledger)
        service.settle_direct(payer=2, payee=1, amount=4.0)
        assert ledger.balance(1, 2) == 0.0
        assert ledger.income[1] == 4.0

    def test_transaction_fees_tracked(self):
        ledger = SwapLedger()
        service = SettlementService(ledger, transaction_fee=0.5)
        service.settle_direct(2, 1, 4.0)
        service.settle_direct(3, 1, 4.0)
        assert service.stats.fees_paid == 1.0
        assert service.stats.value_settled == 8.0
        assert service.stats.cheques_cashed == 2

    def test_default_deposit_applied(self):
        ledger = SwapLedger()
        service = SettlementService(ledger, default_deposit=5.0)
        service.settle_direct(2, 1, 4.0)
        with pytest.raises(InsufficientFundsError):
            service.settle_direct(2, 3, 4.0)

    def test_set_deposit(self):
        ledger = SwapLedger()
        service = SettlementService(ledger)
        service.set_deposit(2, 0.0)
        with pytest.raises(InsufficientFundsError):
            service.settle_direct(2, 1, 1.0)

    def test_stats_start_at_zero(self):
        service = SettlementService(SwapLedger())
        assert service.stats == SettlementStats()

    def test_bounced_cheque_counts_nothing(self):
        ledger = SwapLedger()
        service = SettlementService(ledger, default_deposit=1.0)
        with pytest.raises(InsufficientFundsError):
            service.settle_direct(2, 1, 4.0)
        assert service.stats == SettlementStats()
        assert ledger.income[1] == 0.0
        assert service.chequebook(2).total_promised == 0.0

    def test_refused_settle_changes_nothing(self):
        # 2.0 units of service are owed, so settling 3.0 overshoots the
        # channel debt: the ledger refuses before the cheque is issued
        # or cashed.
        ledger = SwapLedger()
        service = SettlementService(ledger)
        ledger.record_service(provider=2, consumer=1, units=2.0)
        with pytest.raises(AccountingError, match="only 2.0 is owed"):
            service.settle(1, 2, 3.0)
        book = service.chequebook(1)
        assert (book.total_promised, book.total_cashed) == (0.0, 0.0)
        assert service.stats == SettlementStats()
        assert ledger.income[2] == ledger.expenditure[1] == 0.0
        assert ledger.balance(2, 1) == 2.0
        # The channel still settles what it owes.
        service.settle(1, 2, 2.0)
        assert ledger.balance(2, 1) == 0.0
        assert book.total_cashed == 2.0
