"""Unit tests for the assembled SWAP incentives (repro.core.incentives)."""

from __future__ import annotations

import pytest

from repro.core.incentives import SwapIncentives
from repro.core.policies import AllHopsPolicy, NoPaymentPolicy
from repro.core.pricing import FlatPricing, XorDistancePricing
from repro.kademlia.address import AddressSpace
from repro.kademlia.routing import Route


@pytest.fixture()
def space() -> AddressSpace:
    return AddressSpace(8)


@pytest.fixture()
def incentives(space) -> SwapIncentives:
    return SwapIncentives(pricing=FlatPricing(1.0))


class TestProcessRoute:
    def test_counters_per_hop(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2, 3, 4)))
        nodes = [1, 2, 3, 4]
        assert incentives.contributions(nodes) == [0.0, 1.0, 1.0, 1.0]
        assert incentives.ledger.first_hop_vector(nodes) == [0, 1, 0, 0]

    def test_first_hop_paid_directly(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        assert incentives.incomes([1, 2, 3]) == [0.0, 1.0, 0.0]
        # The paid hop never becomes channel debt.
        assert incentives.ledger.balance(2, 1) == 0.0
        # The unpaid hop does.
        assert incentives.ledger.balance(3, 2) == 1.0

    def test_local_hit_is_free(self, incentives):
        incentives.process_route(Route(target=5, path=(1,)))
        assert incentives.incomes([1]) == [0.0]
        assert incentives.contributions([1]) == [0.0]

    def test_route_counter(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2)))
        incentives.process_route(Route(target=6, path=(1, 2)))
        assert incentives.routes_processed == 2

    def test_xor_priced_income(self, space):
        incentives = SwapIncentives(pricing=XorDistancePricing(space))
        route = Route(target=0b10000000, path=(0b1, 0b11000000))
        incentives.process_route(route)
        expected = XorDistancePricing(space).price(0b11000000, 0b10000000)
        assert incentives.incomes([0b11000000]) == [pytest.approx(expected)]

    def test_all_hops_policy_pays_every_edge(self, space):
        incentives = SwapIncentives(
            pricing=FlatPricing(1.0), policy=AllHopsPolicy()
        )
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        assert incentives.incomes([2, 3]) == [1.0, 1.0]
        # All service was purchased; no channel debt anywhere.
        assert incentives.ledger.balance(2, 1) == 0.0
        assert incentives.ledger.balance(3, 2) == 0.0

    def test_no_payment_policy_accrues_debt_only(self, space):
        incentives = SwapIncentives(
            pricing=FlatPricing(1.0), policy=NoPaymentPolicy()
        )
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        assert incentives.incomes([2, 3]) == [0.0, 0.0]
        assert incentives.ledger.balance(2, 1) == 1.0


class TestDefaults:
    def test_freerider_defaults_and_debt_falls_back(self, incentives):
        incentives.set_deposit(1, 0.0)
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        assert incentives.defaults[1] == 1
        assert incentives.incomes([2]) == [0.0]
        # The unpaid purchase became channel debt instead.
        assert incentives.ledger.balance(2, 1) == 1.0

    def test_funded_node_never_defaults(self, incentives):
        incentives.set_deposit(1, 100.0)
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        assert incentives.defaults == {}


class TestReports:
    def test_fairness_uses_income(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        report = incentives.fairness([1, 2, 3])
        assert report.total_peers == 3
        assert report.rewarded_peers == 1

    def test_paper_f1_uses_first_hop_counts(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        incentives.process_route(Route(target=6, path=(4, 2)))
        report = incentives.paper_f1_report([1, 2, 3, 4])
        # Node 2: forwarded 2, paid 2 -> only rewarded peer.
        assert report.rewarded_peers == 1

    def test_amortize_delegates(self, incentives):
        incentives.process_route(Route(target=5, path=(1, 2, 3)))
        forgiven = incentives.amortize(0.4)
        assert forgiven == pytest.approx(0.4)
