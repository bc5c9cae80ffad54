"""Unit tests for the SWAP ledger (repro.core.swap)."""

from __future__ import annotations

import pytest

from repro.core.swap import SwapChannel, SwapLedger, SwapThresholds
from repro.errors import AccountingError, ConfigurationError


class TestSwapThresholds:
    def test_defaults_ordered(self):
        thresholds = SwapThresholds()
        assert thresholds.payment <= thresholds.disconnect

    def test_disconnect_below_payment_rejected(self):
        with pytest.raises(AccountingError):
            SwapThresholds(payment=100, disconnect=50)

    @pytest.mark.parametrize("payment", [0, -5])
    def test_nonpositive_rejected(self, payment):
        with pytest.raises(ConfigurationError):
            SwapThresholds(payment=payment, disconnect=100)


class TestSwapChannel:
    def test_endpoint_ordering_enforced(self):
        with pytest.raises(AccountingError):
            SwapChannel(low=5, high=5)
        with pytest.raises(AccountingError):
            SwapChannel(low=9, high=3)

    def test_provide_updates_balance_sign(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 10.0)
        assert channel.balance_of(1) == 10.0   # 2 owes 1
        assert channel.balance_of(2) == -10.0

        channel.provide(2, 4.0)
        assert channel.balance_of(1) == 6.0

    def test_transferred_units_accumulate_both_ways(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 10.0)
        channel.provide(2, 4.0)
        assert channel.transferred_units == 14.0

    def test_non_member_rejected(self):
        channel = SwapChannel(low=1, high=2)
        with pytest.raises(AccountingError, match="not on channel"):
            channel.provide(3, 1.0)
        with pytest.raises(AccountingError):
            channel.balance_of(3)

    def test_counterparty(self):
        channel = SwapChannel(low=1, high=2)
        assert channel.counterparty(1) == 2
        assert channel.counterparty(2) == 1

    def test_settle_reduces_debt(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 10.0)
        channel.settle(creditor=1, amount=6.0)
        assert channel.balance_of(1) == pytest.approx(4.0)

    def test_settle_beyond_debt_rejected(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 5.0)
        with pytest.raises(AccountingError, match="only"):
            channel.settle(creditor=1, amount=6.0)

    def test_settle_when_owed_nothing_rejected(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(2, 5.0)  # 1 owes 2
        with pytest.raises(AccountingError):
            channel.settle(creditor=1, amount=1.0)

    def test_amortize_moves_toward_zero(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 5.0)
        forgiven = channel.amortize(2.0)
        assert forgiven == 2.0
        assert channel.balance_of(1) == 3.0

    def test_amortize_caps_at_balance(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(2, 1.5)
        forgiven = channel.amortize(10.0)
        assert forgiven == 1.5
        assert channel.balance == 0.0

    def test_amortize_negative_balance(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(2, 5.0)  # balance -5
        channel.amortize(2.0)
        assert channel.balance_of(2) == pytest.approx(3.0)


class TestSwapLedgerChannels:
    def test_channel_created_on_first_use(self):
        ledger = SwapLedger()
        channel = ledger.channel(7, 3)
        assert (channel.low, channel.high) == (3, 7)
        assert ledger.channel(3, 7) is channel

    def test_self_channel_rejected(self):
        with pytest.raises(AccountingError):
            SwapLedger().channel(4, 4)

    def test_balance_of_untouched_pair_is_zero(self):
        assert SwapLedger().balance(1, 2) == 0.0


class TestSwapLedgerRecording:
    def test_record_service_updates_aggregates(self):
        ledger = SwapLedger()
        ledger.record_service(provider=1, consumer=2, units=3.0)
        assert ledger.service_provided[1] == 3.0
        assert ledger.service_consumed[2] == 3.0
        assert ledger.balance(1, 2) == 3.0

    def test_would_disconnect(self):
        ledger = SwapLedger(SwapThresholds(payment=10, disconnect=15))
        ledger.record_service(1, 2, 14.0)
        assert not ledger.would_disconnect(1, 2, 1.0)
        assert ledger.would_disconnect(1, 2, 2.0)

    def test_pay_settles_and_tracks_income(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 10.0)
        ledger.pay(payer=2, payee=1, amount=10.0)
        assert ledger.balance(1, 2) == pytest.approx(0.0)
        assert ledger.income[1] == 10.0
        assert ledger.expenditure[2] == 10.0

    def test_balance_is_antisymmetric(self):
        ledger = SwapLedger()
        ledger.record_service(provider=1, consumer=2, units=3.0)
        assert ledger.balance(2, 1) == -3.0

    def test_service_both_ways_nets_on_the_channel(self):
        ledger = SwapLedger()
        ledger.record_service(provider=1, consumer=2, units=5.0)
        ledger.record_service(provider=2, consumer=1, units=2.0)
        assert ledger.balance(1, 2) == 3.0
        assert len(ledger.channels()) == 1
        assert ledger.service_provided[1] == 5.0
        assert ledger.service_provided[2] == 2.0

    def test_pay_beyond_debt_leaves_aggregates_alone(self):
        ledger = SwapLedger()
        ledger.record_service(provider=1, consumer=2, units=2.0)
        with pytest.raises(AccountingError):
            ledger.pay(payer=2, payee=1, amount=3.0)
        assert ledger.balance(1, 2) == 2.0
        assert ledger.income[1] == 0.0
        assert ledger.expenditure[2] == 0.0

    def test_pay_direct_bypasses_channel(self):
        ledger = SwapLedger()
        ledger.pay_direct(payer=2, payee=1, amount=5.0)
        assert ledger.balance(1, 2) == 0.0
        assert ledger.income[1] == 5.0
        assert ledger.service_provided[1] == 5.0
        assert ledger.service_consumed[2] == 5.0

    def test_pay_direct_self_rejected(self):
        with pytest.raises(AccountingError):
            SwapLedger().pay_direct(1, 1, 1.0)

    def test_record_forwarded_chunk(self):
        ledger = SwapLedger()
        ledger.record_forwarded_chunk(5)
        ledger.record_forwarded_chunk(5, as_first_hop=True)
        assert ledger.chunks_forwarded[5] == 2
        assert ledger.chunks_as_first_hop[5] == 1


class TestAmortizeAll:
    def test_amortizes_every_channel(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 4.0)
        ledger.record_service(3, 4, 1.0)
        forgiven = ledger.amortize_all(2.0)
        assert forgiven == pytest.approx(3.0)
        assert ledger.balance(1, 2) == pytest.approx(2.0)
        assert ledger.balance(3, 4) == 0.0
        assert ledger.total_amortized == pytest.approx(3.0)

    def test_negative_units_rejected(self):
        with pytest.raises(ConfigurationError):
            SwapLedger().amortize_all(-1.0)

    def test_zero_units_forgive_nothing(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 4.0)
        assert ledger.amortize_all(0.0) == 0.0
        assert ledger.balance(1, 2) == 4.0
        assert ledger.total_amortized == 0.0

    def test_empty_ledger_forgives_nothing(self):
        ledger = SwapLedger()
        assert ledger.amortize_all(5.0) == 0.0
        assert ledger.channels() == []

    def test_total_accumulates_across_ticks(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 10.0)
        for _ in range(3):
            ledger.amortize_all(2.0)
        assert ledger.balance(1, 2) == pytest.approx(4.0)
        assert ledger.total_amortized == pytest.approx(6.0)

    def test_drained_channels_stop_forgiving(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 3.0)
        assert ledger.amortize_all(2.0) == pytest.approx(2.0)
        assert ledger.amortize_all(2.0) == pytest.approx(1.0)
        assert ledger.amortize_all(2.0) == 0.0
        assert ledger.total_amortized == pytest.approx(3.0)

    @pytest.mark.parametrize("provider,consumer", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("units", [1.0, 5.0, 50.0])
    def test_never_flips_who_owes_whom(self, provider, consumer, units):
        ledger = SwapLedger()
        ledger.record_service(provider, consumer, 5.0)
        forgiven = ledger.amortize_all(units)
        assert forgiven == pytest.approx(min(units, 5.0))
        assert ledger.balance(provider, consumer) == pytest.approx(
            max(5.0 - units, 0.0))
        assert ledger.balance(consumer, provider) <= 0.0

    def test_forgives_the_sum_of_debts_when_units_cover_them(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 4.0)
        ledger.record_service(3, 1, 2.5)
        ledger.record_service(4, 5, 1.0)
        assert ledger.amortize_all(100.0) == pytest.approx(7.5)
        assert all(channel.balance == 0.0 for channel in ledger.channels())

    def test_aggregates_untouched(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 8.0)
        ledger.pay(2, 1, 3.0)
        ledger.amortize_all(100.0)
        assert ledger.service_provided[1] == 8.0
        assert ledger.service_consumed[2] == 8.0
        assert ledger.income[1] == 3.0
        assert ledger.expenditure[2] == 3.0
        assert ledger.channel(1, 2).transferred_units == 8.0

    def test_clears_a_due_settlement(self):
        ledger = SwapLedger(SwapThresholds(payment=10.0, disconnect=20.0))
        ledger.record_service(1, 2, 12.0)
        assert ledger.balance(1, 2) == pytest.approx(12.0)
        ledger.amortize_all(3.0)
        assert ledger.balance(1, 2) < ledger.thresholds.payment

    def test_restores_headroom_below_disconnect(self):
        ledger = SwapLedger(SwapThresholds(payment=10.0, disconnect=20.0))
        ledger.record_service(1, 2, 18.0)
        assert ledger.would_disconnect(1, 2, 5.0)
        ledger.amortize_all(4.0)
        assert not ledger.would_disconnect(1, 2, 5.0)

    def test_forgiven_debt_cannot_be_settled(self):
        ledger = SwapLedger()
        ledger.record_service(1, 2, 5.0)
        ledger.amortize_all(4.0)
        with pytest.raises(AccountingError, match="only"):
            ledger.pay(2, 1, 2.0)
        ledger.pay(2, 1, 1.0)
        assert ledger.balance(1, 2) == pytest.approx(0.0)

    def test_channel_with_zero_balance_forgives_nothing(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 3.0)
        channel.provide(2, 3.0)
        assert channel.amortize(10.0) == 0.0
        assert channel.balance == 0.0

    def test_channel_negative_units_rejected(self):
        channel = SwapChannel(low=1, high=2)
        channel.provide(1, 3.0)
        with pytest.raises(ConfigurationError):
            channel.amortize(-0.5)
        assert channel.balance == 3.0


class TestVectors:
    def test_aligned_with_node_list(self):
        ledger = SwapLedger()
        ledger.pay_direct(2, 1, 5.0)
        ledger.record_forwarded_chunk(1, as_first_hop=True)
        ledger.record_forwarded_chunk(3)
        nodes = [1, 2, 3]
        assert ledger.income_vector(nodes) == [5.0, 0.0, 0.0]
        assert ledger.forwarded_vector(nodes) == [1, 0, 1]
        assert ledger.first_hop_vector(nodes) == [1, 0, 0]
