"""Unit tests for postage stamps (repro.swarm.postage)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.swarm.postage import (
    PostageBatch,
    PostageError,
    PostageOffice,
    PostageStamp,
)


class TestPostageStamp:
    def test_negative_index_rejected(self):
        with pytest.raises(PostageError):
            PostageStamp(batch_id=1, chunk_address=2, index=-1)


class TestPostageBatch:
    def test_capacity_is_power_of_depth(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=3)
        assert batch.capacity == 8

    def test_stamp_issues_sequential_indices(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=3)
        first = batch.stamp(100)
        second = batch.stamp(200)
        assert (first.index, second.index) == (0, 1)
        assert batch.issued == 2

    def test_restamping_is_idempotent(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=3)
        first = batch.stamp(100)
        again = batch.stamp(100)
        assert first == again
        assert batch.issued == 1

    def test_full_batch_rejects(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=1)
        batch.stamp(1)
        batch.stamp(2)
        with pytest.raises(PostageError, match="full"):
            batch.stamp(3)

    def test_covers_only_genuine_stamps(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=3)
        stamp = batch.stamp(100)
        assert batch.covers(stamp)
        forged = PostageStamp(batch_id=1, chunk_address=100, index=9)
        assert not batch.covers(forged)
        other_batch = PostageStamp(batch_id=2, chunk_address=100, index=0)
        assert not batch.covers(other_batch)

    def test_rent_proportional_to_issued(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=4)
        for chunk in range(5):
            batch.stamp(chunk)
        collected = batch.charge_rent(0.1)
        assert collected == pytest.approx(0.5)
        assert batch.balance == pytest.approx(9.5)

    def test_rent_capped_by_balance_and_expires(self):
        batch = PostageBatch(1, owner=5, value=1.0, depth=4)
        for chunk in range(10):
            batch.stamp(chunk)
        collected = batch.charge_rent(1.0)  # due 10, balance 1
        assert collected == 1.0
        assert batch.expired
        with pytest.raises(PostageError, match="expired"):
            batch.stamp(99)

    @pytest.mark.parametrize("kwargs", [
        {"value": 0.0, "depth": 2},
        {"value": 5.0, "depth": -1},
        {"value": 5.0, "depth": 41},
    ])
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PostageBatch(1, owner=5, **kwargs)


class TestPostageOffice:
    def test_buy_and_lookup(self):
        office = PostageOffice()
        batch = office.buy_batch(owner=3, value=5.0, depth=4)
        assert office.batch(batch.batch_id) is batch
        with pytest.raises(PostageError):
            office.batch(999)

    def test_validate_checks_funding(self):
        office = PostageOffice(rent_per_chunk_round=10.0)
        batch = office.buy_batch(owner=3, value=5.0, depth=4)
        stamp = batch.stamp(7)
        assert office.validate(stamp)
        office.collect_rent()  # drains the batch fully
        assert batch.expired
        assert not office.validate(stamp)

    def test_validate_unknown_batch_false(self):
        office = PostageOffice()
        assert not office.validate(
            PostageStamp(batch_id=42, chunk_address=1, index=0)
        )

    def test_rent_accumulates_in_pot(self):
        office = PostageOffice(rent_per_chunk_round=0.5)
        batch_a = office.buy_batch(owner=1, value=10.0, depth=4)
        batch_b = office.buy_batch(owner=2, value=10.0, depth=4)
        batch_a.stamp(1)
        batch_b.stamp(2)
        batch_b.stamp(3)
        collected = office.collect_rent()
        assert collected == pytest.approx(1.5)
        assert office.pot == pytest.approx(1.5)
        assert office.rounds_collected == 1

    def test_pay_out_bounded_by_pot(self):
        office = PostageOffice()
        office.pot = 2.0
        assert office.pay_out(5.0) == 2.0
        assert office.pot == 0.0
        with pytest.raises(ConfigurationError):
            office.pay_out(-1.0)

    def test_bad_rent_rejected(self):
        with pytest.raises(ConfigurationError):
            PostageOffice(rent_per_chunk_round=-0.1)

    def test_batch_ids_are_unique_and_listed(self):
        office = PostageOffice()
        sold = [office.buy_batch(owner=o, value=1.0, depth=2)
                for o in (1, 1, 2)]
        assert [b.batch_id for b in sold] == [0, 1, 2]
        assert office.batches() == sold
        assert [b.owner for b in office.batches()] == [1, 1, 2]


class TestPostageLifecycle:
    """Pay, stamp, drain, expire: the funding half of storage incentives."""

    def test_expiry_invalidates_every_stamp_of_the_batch(self):
        office = PostageOffice(rent_per_chunk_round=1.0)
        batch = office.buy_batch(owner=1, value=2.0, depth=4)
        stamps = [batch.stamp(chunk) for chunk in (10, 20, 30)]
        assert all(office.validate(stamp) for stamp in stamps)
        office.collect_rent()  # due 3.0 > balance 2.0
        assert batch.expired
        assert not any(office.validate(stamp) for stamp in stamps)
        # The stamps are still genuine; only the funding lapsed.
        assert all(batch.covers(stamp) for stamp in stamps)

    def test_expired_batch_refuses_a_restamp(self):
        office = PostageOffice(rent_per_chunk_round=5.0)
        batch = office.buy_batch(owner=1, value=1.0, depth=2)
        batch.stamp(10)
        office.collect_rent()
        with pytest.raises(PostageError, match="expired"):
            batch.stamp(10)

    def test_expired_batches_pay_no_more_rent(self):
        office = PostageOffice(rent_per_chunk_round=1.0)
        batch = office.buy_batch(owner=1, value=1.5, depth=4)
        batch.stamp(1)
        batch.stamp(2)
        assert office.collect_rent() == pytest.approx(1.5)
        assert office.collect_rent() == 0.0
        assert office.pot == pytest.approx(1.5)
        assert office.rounds_collected == 2
        assert batch.balance == 0.0

    def test_batches_expire_independently(self):
        office = PostageOffice(rent_per_chunk_round=1.0)
        dying = office.buy_batch(owner=1, value=0.5, depth=4)
        live = office.buy_batch(owner=2, value=100.0, depth=4)
        dying_stamp = dying.stamp(10)
        live_stamp = live.stamp(20)
        office.collect_rent()
        assert dying.expired and not live.expired
        assert not office.validate(dying_stamp)
        assert office.validate(live_stamp)
        assert live.balance == pytest.approx(99.0)

    def test_last_round_collects_exactly_the_remainder(self):
        office = PostageOffice(rent_per_chunk_round=1.0)
        batch = office.buy_batch(owner=1, value=5.0, depth=4)
        batch.stamp(1)
        batch.stamp(2)
        takes = [office.collect_rent() for _ in range(4)]
        assert takes == pytest.approx([2.0, 2.0, 1.0, 0.0])
        assert office.pot == pytest.approx(5.0)

    def test_zero_rent_never_expires(self):
        office = PostageOffice(rent_per_chunk_round=0.0)
        batch = office.buy_batch(owner=1, value=1.0, depth=2)
        stamp = batch.stamp(10)
        for _ in range(50):
            office.collect_rent()
        assert not batch.expired
        assert office.validate(stamp)
        assert office.pot == 0.0

    def test_unused_batch_pays_no_rent(self):
        office = PostageOffice(rent_per_chunk_round=3.0)
        batch = office.buy_batch(owner=1, value=1.0, depth=2)
        assert office.collect_rent() == 0.0
        assert batch.balance == 1.0
        assert not batch.expired

    def test_pot_funds_payouts_until_empty(self):
        office = PostageOffice(rent_per_chunk_round=1.0)
        batch = office.buy_batch(owner=1, value=3.0, depth=2)
        batch.stamp(1)
        office.collect_rent()
        office.collect_rent()
        assert office.pay_out(1.5) == 1.5
        assert office.pay_out(1.5) == pytest.approx(0.5)
        assert office.pay_out(1.0) == 0.0
        assert office.pot == pytest.approx(0.0)

    def test_negative_rent_charge_rejected(self):
        batch = PostageBatch(1, owner=5, value=10.0, depth=3)
        batch.stamp(1)
        with pytest.raises(ConfigurationError):
            batch.charge_rent(-1.0)
        assert batch.balance == 10.0

    @pytest.mark.parametrize("depth,capacity", [(0, 1), (40, 1 << 40)])
    def test_depth_bounds_are_inclusive(self, depth, capacity):
        assert PostageBatch(1, owner=5, value=1.0, depth=depth).capacity \
            == capacity

    @pytest.mark.parametrize("depth", [True, 2.0, "3"])
    def test_non_int_depth_rejected(self, depth):
        with pytest.raises(ConfigurationError):
            PostageBatch(1, owner=5, value=1.0, depth=depth)
