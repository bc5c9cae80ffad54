"""Unit tests for failure records, the retry policy and digests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sweeps import SweepSpec, failure_digest
from repro.sweeps.resilience import (
    FailureTracker,
    PointFailure,
    RetryPolicy,
)
from tests.sweeps.test_store import TINY


def one_point():
    spec = SweepSpec(base=TINY, grid={"bucket_size": (4,)},
                     backends=("fast",), seeds=1)
    return spec.points()[0]


class TestRetryPolicy:
    def test_allows_exactly_max_retries_extra_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_zero_retries_means_one_attempt(self):
        assert not RetryPolicy(max_retries=0).allows(0)

    def test_backoff_is_capped_exponential_without_jitter(self):
        policy = RetryPolicy(max_retries=10, backoff_base=0.1,
                             backoff_cap=0.5)
        delays = [policy.delay(attempt) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
        # Deterministic: same attempt, same delay, every time.
        assert policy.delay(2) == policy.delay(2)

    def test_invalid_parameters_refused(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-0.1)


class TestFailureDigest:
    def test_same_error_same_digest(self):
        assert failure_digest(ValueError("boom")) == \
            failure_digest(ValueError("boom"))

    def test_different_message_different_digest(self):
        assert failure_digest(ValueError("a")) != \
            failure_digest(ValueError("b"))

    def test_digest_covers_the_cause_chain(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError as inner:
                raise ValueError("outer") from inner
        except ValueError as chained:
            with_cause = failure_digest(chained)
        assert with_cause != failure_digest(ValueError("outer"))

    def test_digest_skips_a_pool_workers_remote_traceback(self):
        # A pool worker's exception arrives with the remote traceback
        # (file paths, line numbers) attached as its cause.
        from concurrent.futures.process import _RemoteTraceback

        error = ValueError("boom")
        error.__cause__ = _RemoteTraceback(
            '\n"""\n  File "/any/checkout/worker.py", line 7\n"""'
        )
        assert failure_digest(error) == failure_digest(ValueError("boom"))

    def test_digest_is_short_stable_hex(self):
        digest = failure_digest(RuntimeError("x"))
        assert len(digest) == 16
        int(digest, 16)  # hex or raises


class TestPointFailure:
    def test_failure_record_is_plain_sorted_data(self):
        point = one_point()
        failure = PointFailure(point=point, kind="timeout",
                               error="PointTimeout: too slow",
                               digest="f" * 16, attempts=2)
        record = failure.record()
        assert record["point_id"] == point.point_id
        assert record["kind"] == "timeout"
        assert record["attempts"] == 2
        # Deterministic store material: no timestamps, no paths.
        assert set(record) == {
            "point_id", "backend", "overrides", "replica",
            "workload_seed", "kind", "error", "digest", "attempts",
        }

    def test_describe_names_the_point_and_kind(self):
        point = one_point()
        failure = PointFailure(point=point, kind="crash",
                               error="WorkerCrash: died",
                               digest="a" * 16, attempts=1)
        text = failure.describe()
        assert point.point_id in text
        assert "crash" in text


class TestFailureTracker:
    def test_retries_then_quarantines(self):
        point = one_point()
        tracker = FailureTracker(RetryPolicy(max_retries=2))
        error = ValueError("boom")
        assert tracker.record(point, "exception", error) is None
        assert tracker.attempts[point.point_id] == 1
        assert tracker.record(point, "exception", error) is None
        final = tracker.record(point, "exception", error)
        assert final is not None
        assert final.attempts == 3

    def test_unknown_kind_refused(self):
        # Validation lives in PointFailure, built once the budget is
        # exhausted — max_retries=0 makes the first failure terminal.
        tracker = FailureTracker(RetryPolicy(max_retries=0))
        with pytest.raises(ConfigurationError, match="meteor"):
            tracker.record(one_point(), "meteor", ValueError("x"))
