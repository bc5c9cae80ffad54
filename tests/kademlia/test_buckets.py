"""Unit tests for k-buckets (repro.kademlia.buckets)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, OverlayError
from repro.kademlia.buckets import (
    BucketLimits,
    KBucket,
    KADEMLIA_BUCKET_SIZE,
    NEIGHBORHOOD_MIN,
    SWARM_BUCKET_SIZE,
)


class TestConstants:
    def test_paper_defaults(self):
        assert SWARM_BUCKET_SIZE == 4
        assert KADEMLIA_BUCKET_SIZE == 20
        assert NEIGHBORHOOD_MIN == 4


class TestBucketLimits:
    def test_default_capacity(self):
        limits = BucketLimits()
        assert limits.capacity(0) == SWARM_BUCKET_SIZE
        assert limits.capacity(13) == SWARM_BUCKET_SIZE

    def test_overrides(self):
        limits = BucketLimits(default=4, overrides={0: 20, 3: 8})
        assert limits.capacity(0) == 20
        assert limits.capacity(3) == 8
        assert limits.capacity(1) == 4

    def test_uniform_factory(self):
        assert BucketLimits.uniform(20).capacity(5) == 20

    @pytest.mark.parametrize("default", [0, -3, 1.5, True])
    def test_bad_default_rejected(self, default):
        with pytest.raises(ConfigurationError):
            BucketLimits(default=default)

    def test_bad_override_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BucketLimits(overrides={0: 0})

    def test_negative_override_index_rejected(self):
        with pytest.raises(ConfigurationError):
            BucketLimits(overrides={-1: 5})


class TestKBucketConstruction:
    def test_initial_state(self):
        bucket = KBucket(index=2, capacity=4)
        assert len(bucket) == 0
        assert not bucket.is_full
        assert bucket.peers == ()

    def test_unbounded_capacity(self):
        bucket = KBucket(index=0, capacity=None)
        for address in range(1000):
            assert bucket.add(address)
        assert not bucket.is_full

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError):
            KBucket(index=0, capacity=capacity)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            KBucket(index=-1, capacity=4)


class TestKBucketMutation:
    def test_add_preserves_insertion_order(self):
        bucket = KBucket(index=0, capacity=4)
        for address in (9, 3, 7):
            bucket.add(address)
        assert bucket.peers == (9, 3, 7)

    def test_duplicate_add_returns_false(self):
        bucket = KBucket(index=0, capacity=4)
        assert bucket.add(5)
        assert not bucket.add(5)
        assert len(bucket) == 1

    def test_full_bucket_rejects(self):
        bucket = KBucket(index=0, capacity=2)
        assert bucket.add(1)
        assert bucket.add(2)
        assert bucket.is_full
        assert not bucket.add(3)
        assert 3 not in bucket

    def test_remove(self):
        bucket = KBucket(index=0, capacity=4)
        bucket.add(1)
        bucket.remove(1)
        assert 1 not in bucket
        assert len(bucket) == 0

    def test_remove_absent_raises(self):
        with pytest.raises(OverlayError, match="not in bucket"):
            KBucket(index=0, capacity=4).remove(1)

    def test_extend_stops_at_capacity(self):
        bucket = KBucket(index=0, capacity=3)
        added = bucket.extend([1, 2, 3, 4, 5])
        assert added == 3
        assert bucket.peers == (1, 2, 3)

    def test_extend_skips_duplicates(self):
        bucket = KBucket(index=0, capacity=5)
        bucket.add(1)
        assert bucket.extend([1, 2, 2, 3]) == 2

    def test_membership_and_iteration(self):
        bucket = KBucket(index=0, capacity=4)
        bucket.add(8)
        assert 8 in bucket
        assert list(bucket) == [8]
