"""Unit tests for the distributed sweep work queue.

:class:`QueueState` is exercised directly (no sockets, fake clock):
lease ordering and attempt numbers, completion idempotence, the
retry-then-quarantine ladder, lease expiry charging exactly one
``crash`` attempt, and the stale-report guard that keeps a
double-charge from ever happening. A Hypothesis state machine drives
random interleavings of every operation against a model. A short
HTTP section smoke-tests the daemon's JSON protocol end to end over
loopback.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backends.config import FastSimulationConfig
from repro.errors import ConfigurationError
from repro.sweeps import RetryPolicy, SweepSpec, failure_digest
from repro.sweeps.queue_daemon import SweepQueueDaemon
from repro.sweeps.resilience import (
    LEASE_CRASH_DIGEST,
    LEASE_CRASH_ERROR,
    QueueState,
)

TINY = FastSimulationConfig(
    n_nodes=60, bits=10, n_files=8, file_min=3, file_max=6
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(base=TINY, grid={"bucket_size": (4, 8)},
                    backends=("fast",), seeds=2)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def make_state(spec=None, **kwargs) -> tuple[QueueState, FakeClock]:
    spec = spec or tiny_spec()
    clock = FakeClock()
    kwargs.setdefault("retry_policy",
                      RetryPolicy(max_retries=2, backoff_base=0.0))
    state = QueueState(spec, spec.points(), clock=clock, **kwargs)
    return state, clock


def fake_record(point_id: str) -> dict:
    return {"point_id": point_id, "backend": "fast", "overrides": {},
            "replica": 0, "workload_seed": 1, "metrics": {"chunks": 1}}


class TestLease:
    def test_leases_in_canonical_order(self):
        state, _ = make_state()
        expected = [p.point_id for p in state.spec.points()]
        got = []
        while True:
            response = state.lease("w", 1)
            if not response["points"]:
                break
            got.append(response["points"][0]["point"]["point_id"])
        assert got == expected

    def test_batch_lease_respects_count(self):
        state, _ = make_state()
        response = state.lease("w", 3)
        assert len(response["points"]) == 3
        assert state.status()["leased"] == 3

    def test_fresh_points_carry_attempt_zero(self):
        state, _ = make_state()
        response = state.lease("w", 4)
        assert [e["attempt"] for e in response["points"]] == [0, 0, 0, 0]

    def test_seeded_attempts_surface_in_lease(self):
        spec = tiny_spec()
        first = spec.points()[0].point_id
        state, _ = make_state(spec, attempts={first: 2})
        response = state.lease("w", 1)
        assert response["points"][0]["attempt"] == 2

    def test_idle_worker_gets_retry_after_not_done(self):
        state, _ = make_state()
        state.lease("a", len(state.points))  # everything leased out
        response = state.lease("b", 1)
        assert response["points"] == []
        assert response["done"] is False
        assert response["retry_after"] is not None

    def test_invalid_lease_timeout_refused(self):
        spec = tiny_spec()
        with pytest.raises(ConfigurationError, match="lease_timeout"):
            QueueState(spec, spec.points(), lease_timeout=0.0)


class TestComplete:
    def test_complete_settles_and_emits(self):
        state, _ = make_state()
        leased = state.lease("w", 1)["points"][0]
        point_id = leased["point"]["point_id"]
        response = state.complete("w", fake_record(point_id), 0, 0.1)
        assert response["ok"] and not response["duplicate"]
        kind, outcome = state.events.get_nowait()
        assert kind == "result" and outcome.point_id == point_id

    def test_duplicate_completion_dedups(self):
        state, _ = make_state()
        leased = state.lease("w", 1)["points"][0]
        point_id = leased["point"]["point_id"]
        state.complete("w", fake_record(point_id), 0, 0.1)
        response = state.complete("other", fake_record(point_id), 0, 0.2)
        assert response["duplicate"] is True
        state.events.get_nowait()
        assert state.events.empty(), "a duplicate must not re-emit"

    def test_unknown_point_refused(self):
        state, _ = make_state()
        with pytest.raises(KeyError):
            state.complete("w", fake_record("no|such|point"), 0, 0.1)

    def test_final_completion_reports_done(self):
        state, _ = make_state()
        responses = []
        while True:
            leased = state.lease("w", 1)["points"]
            if not leased:
                break
            point_id = leased[0]["point"]["point_id"]
            responses.append(
                state.complete("w", fake_record(point_id), 0, 0.1)
            )
        assert [r["done"] for r in responses[:-1]] == [False] * 3
        assert responses[-1]["done"] is True
        assert state.finished


class TestFail:
    def test_retry_then_quarantine_with_global_numbering(self):
        state, _ = make_state()
        # Lease the whole queue so the failing point is the only one
        # ever requeued (a requeue lands *behind* untouched pending
        # points, by design).
        leased = state.lease("w", 4)["points"]
        target = leased[0]["point"]["point_id"]
        verdicts = []
        for _ in range(3):  # max_retries=2 -> third report is terminal
            verdicts.append(
                state.fail("w", target, "exception", "E: boom", "d" * 16)
            )
            if verdicts[-1]["retry"]:
                leased = state.lease("w", 1)["points"][0]
                assert leased["point"]["point_id"] == target
        assert [v["retry"] for v in verdicts] == [True, True, False]
        record = verdicts[-1]["failure"]
        assert record["point_id"] == target
        assert record["attempts"] == 3
        kind, failure = state.events.get_nowait()
        assert kind == "failure" and failure.attempts == 3

    def test_requeued_point_carries_bumped_attempt(self):
        state, _ = make_state()
        target = state.lease("w", 4)["points"][0]["point"]["point_id"]
        state.fail("w", target, "exception", "E: boom", "d" * 16)
        leased = state.lease("w", 1)["points"][0]
        assert leased["point"]["point_id"] == target
        assert leased["attempt"] == 1

    def test_stale_report_is_ignored(self):
        state, clock = make_state(lease_timeout=10.0)
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        clock.tick(11.0)
        state.expire_overdue()  # charges the crash attempt
        verdict = state.fail("w", target, "exception", "E: late", "x" * 16)
        assert verdict.get("stale") is True
        assert state.tracker.attempts[target] == 1, (
            "the expiry charge must not be doubled by the late report"
        )

    def test_success_supersedes_quarantine(self):
        state, _ = make_state(
            retry_policy=RetryPolicy(max_retries=0, backoff_base=0.0)
        )
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        state.fail("w", target, "exception", "E: boom", "d" * 16)
        assert target in state.terminal
        # A re-lease elsewhere completed meanwhile (false expiry race).
        state.complete("other", fake_record(target), 0, 0.1)
        assert target not in state.terminal
        assert state.status()["quarantined"] == 0


class TestExpiry:
    def test_expired_lease_charges_exactly_one_crash(self):
        state, clock = make_state(lease_timeout=5.0)
        leased = state.lease("w", 4)["points"]
        target = leased[0]["point"]["point_id"]
        for entry in leased[1:]:  # settle the rest so only it expires
            state.complete("w", fake_record(entry["point"]["point_id"]),
                           0, 0.1)
        clock.tick(6.0)
        assert state.expire_overdue() == [target]
        assert state.tracker.attempts[target] == 1
        # The point is ready again for any worker, attempt bumped.
        leased = state.lease("other", 1)["points"][0]
        assert leased["point"]["point_id"] == target
        assert leased["attempt"] == 1

    def test_exhausted_expiries_quarantine_with_fixed_record(self):
        state, clock = make_state(
            lease_timeout=5.0,
            retry_policy=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        clock.tick(6.0)
        state.expire_overdue()
        record = state.terminal[target]
        assert record["kind"] == "crash"
        assert record["error"] == LEASE_CRASH_ERROR
        assert record["digest"] == LEASE_CRASH_DIGEST

    def test_heartbeat_renews_leases(self):
        state, clock = make_state(lease_timeout=5.0)
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        clock.tick(4.0)
        assert state.heartbeat("w")["renewed"] == 1
        clock.tick(4.0)  # 8s total, but renewed at 4s
        assert state.expire_overdue() == []
        assert target in state.leases

    def test_expire_worker_targets_one_host(self):
        state, _ = make_state()
        state.lease("a", 2)
        state.lease("b", 2)
        expired = state.expire_worker("a")
        assert len(expired) == 2
        assert all(lease["worker"] == "b"
                   for lease in state.leases.values())

    def test_completed_point_never_expires(self):
        state, clock = make_state(lease_timeout=5.0)
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        state.complete("w", fake_record(target), 0, 0.1)
        clock.tick(6.0)
        assert state.expire_overdue() == []
        assert target not in state.tracker.attempts


class TestStatus:
    def test_counters_track_the_lifecycle(self):
        state, _ = make_state()
        assert state.status() == {
            "total": 4, "pending": 4, "leased": 0, "completed": 0,
            "quarantined": 0, "done": False,
        }
        target = state.lease("w", 1)["points"][0]["point"]["point_id"]
        assert state.status()["leased"] == 1
        state.complete("w", fake_record(target), 0, 0.1)
        counters = state.status()
        assert counters["completed"] == 1
        assert counters["pending"] == 3


def http_json(url: str, payload: dict | None = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(
            urllib.request.Request(url, data=data), timeout=10.0
    ) as response:
        return json.loads(response.read())


class TestDaemonHTTP:
    def test_protocol_round_trip_over_loopback(self):
        spec = tiny_spec()
        state, _ = make_state(spec)
        daemon = SweepQueueDaemon(state).start()
        try:
            handshake = http_json(f"{daemon.url}/spec")
            assert (SweepSpec.from_json(handshake["spec"]).points()
                    == spec.points())
            leased = http_json(f"{daemon.url}/lease",
                               {"worker": "w", "count": 2})
            assert len(leased["points"]) == 2
            first = leased["points"][0]["point"]["point_id"]
            done = http_json(f"{daemon.url}/complete", {
                "worker": "w", "record": fake_record(first),
                "index": 0, "elapsed": 0.1,
            })
            assert done["ok"] is True
            second = leased["points"][1]["point"]["point_id"]
            verdict = http_json(f"{daemon.url}/fail", {
                "worker": "w", "point_id": second, "kind": "exception",
                "error": "E: boom", "digest": "d" * 16,
            })
            assert verdict["retry"] is True
            assert http_json(f"{daemon.url}/heartbeat",
                             {"worker": "w"})["renewed"] == 0
            assert http_json(f"{daemon.url}/status")["completed"] == 1
        finally:
            daemon.close()

    def test_unknown_path_and_bad_body_are_http_errors(self):
        state, _ = make_state()
        daemon = SweepQueueDaemon(state).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as missing:
                http_json(f"{daemon.url}/nope")
            assert missing.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as bad:
                http_json(f"{daemon.url}/lease", {"count": 1})
            assert bad.value.code == 400
        finally:
            daemon.close()

    def test_deeply_nested_body_is_a_bad_request(self):
        state, _ = make_state()
        daemon = SweepQueueDaemon(state).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as bad:
                urllib.request.urlopen(urllib.request.Request(
                    f"{daemon.url}/lease", data=b"[" * 100_000,
                ), timeout=10.0)
            assert bad.value.code == 400
            bad.value.close()
        finally:
            daemon.close()

    @pytest.mark.parametrize("path, field, literal", [
        ("/lease", "count", "Infinity"),
        ("/lease", "count", "1e400"),
        ("/complete", "index", "-Infinity"),
        ("/complete", "elapsed", "NaN"),
        ("/complete", "elapsed", "Infinity"),
        ("/complete", "elapsed", "-1e400"),
        ("/complete", "index", "1e400"),
        ("/lease", "count", "NaN"),
    ])
    def test_non_finite_number_is_a_bad_request(self, path, field,
                                                literal):
        # json.loads accepts these literals (1e400 overflows to inf);
        # int(inf) raises OverflowError and a NaN elapsed would reach
        # the coordinator's outcome as it is.
        state, _ = make_state()
        daemon = SweepQueueDaemon(state).start()
        try:
            leased = http_json(f"{daemon.url}/lease", {"worker": "w"})
            point_id = leased["points"][0]["point"]["point_id"]
            body = {"worker": "w", "count": 1, "index": 0,
                    "record": fake_record(point_id), "elapsed": 0.1,
                    field: "@"}
            raw = json.dumps(body).replace('"@"', literal).encode()
            with pytest.raises(urllib.error.HTTPError) as bad:
                urllib.request.urlopen(urllib.request.Request(
                    f"{daemon.url}{path}", data=raw,
                ), timeout=10.0)
            assert bad.value.code == 400
            bad.value.close()
            assert http_json(f"{daemon.url}/status")["completed"] == 0
        finally:
            daemon.close()

    @staticmethod
    def _refused_then_served(body_for, literal):
        """POST the body with ``"@"`` replaced by *literal*: a 400.

        *body_for* maps a leased point id to ``(path, body)``. The
        point stays leased and unsettled, and a well-formed completion
        still settles it.
        """
        state, _ = make_state()
        daemon = SweepQueueDaemon(state).start()
        try:
            leased = http_json(f"{daemon.url}/lease", {"worker": "w"})
            point_id = leased["points"][0]["point"]["point_id"]
            path, body = body_for(point_id)
            raw = json.dumps(body).replace('"@"', literal).encode()
            with pytest.raises(urllib.error.HTTPError) as bad:
                urllib.request.urlopen(urllib.request.Request(
                    f"{daemon.url}{path}", data=raw,
                ), timeout=10.0)
            assert bad.value.code == 400
            bad.value.close()
            status = http_json(f"{daemon.url}/status")
            assert (status["completed"], status["leased"]) == (0, 1)
            assert state.tracker.attempts == {}
            done = http_json(f"{daemon.url}/complete", {
                "worker": "w", "record": fake_record(point_id),
                "index": 0, "elapsed": 0.1,
            })
            assert done["ok"] is True
        finally:
            daemon.close()

    @pytest.mark.parametrize("path, field, literal", [
        ("/lease", "count", "true"),
        ("/lease", "count", "2.7"),
        ("/lease", "count", '"3"'),
        ("/lease", "count", "0"),
        ("/lease", "count", "-2"),
        ("/complete", "index", '"4"'),
        ("/complete", "index", "true"),
        ("/complete", "index", "2.0"),
        ("/complete", "elapsed", '"1.5"'),
        ("/complete", "elapsed", "false"),
    ])
    def test_coerced_number_is_a_bad_request(self, path, field, literal):
        # Ints only for count (>= 1) and index, numbers only for
        # elapsed; the daemon refuses the request and keeps serving.
        def body_for(point_id):
            return path, {"worker": "w", "count": 1, "index": 0,
                          "record": fake_record(point_id), "elapsed": 0.1,
                          field: "@"}

        self._refused_then_served(body_for, literal)

    @pytest.mark.parametrize("path, field, literal", [
        ("/lease", "worker", "7"),
        ("/lease", "worker", "null"),
        ("/complete", "worker", '["w"]'),
        ("/fail", "worker", "true"),
        ("/fail", "point_id", "7"),
        ("/fail", "kind", "[]"),
        ("/fail", "error", "{}"),
        ("/fail", "digest", "null"),
        ("/heartbeat", "worker", "1.5"),
    ])
    def test_non_string_field_is_a_bad_request(self, path, field,
                                               literal):
        # Worker names, point ids and failure fields are JSON strings;
        # nothing is stringified on the way in.
        def body_for(point_id):
            body = {"worker": "w", "record": fake_record(point_id),
                    "index": 0, "elapsed": 0.1, "point_id": point_id,
                    "kind": "exception", "error": "E: boom",
                    "digest": "d" * 16}
            body[field] = "@"
            return path, body

        self._refused_then_served(body_for, literal)

    @pytest.mark.parametrize("field, literal", [
        ("replica", "true"),
        ("replica", "0.0"),
        ("replica", '"0"'),
        ("workload_seed", "false"),
        ("workload_seed", "1.5"),
        ("workload_seed", '"1"'),
        ("overrides", "[]"),
        ("overrides", '[["bucket_size", 4]]'),
        ("metrics", "[]"),
        ("metrics", '[["chunks", 1]]'),
    ])
    def test_coerced_record_field_is_a_bad_request(self, field, literal):
        # A completed record's replica and workload seed are JSON ints
        # and its overrides and metrics JSON objects, as the store
        # writes them.
        def body_for(point_id):
            record = fake_record(point_id)
            record[field] = "@"
            return "/complete", {"worker": "w", "record": record,
                                 "index": 0, "elapsed": 0.1}

        self._refused_then_served(body_for, literal)

    def test_lease_count_below_one_is_refused(self):
        state, _ = make_state()
        with pytest.raises(ValueError, match="count must be >= 1"):
            state.lease("w", 0)
        assert state.status()["leased"] == 0

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_invalid_content_length_is_refused_unread(self, length):
        state, _ = make_state()
        daemon = SweepQueueDaemon(state).start()
        host, port = daemon.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=5.0)
        try:
            connection.putrequest("POST", "/lease")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            assert connection.getresponse().status == 400
        finally:
            connection.close()
            daemon.close()


MAX_RETRIES = 2
LEASE_TIMEOUT = 10.0
WORKERS = st.sampled_from(["a", "b"])


class SchedulerMachine(RuleBasedStateMachine):
    """Random interleavings of every scheduler operation.

    The model tracks only which leases are out and the charges each
    point has taken; after every step the scheduler must agree with
    it, and each point's terminal record must be what the point's
    own charges give when replayed alone.
    """

    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        spec = tiny_spec()
        self.state = QueueState(
            spec, spec.points(), clock=self.clock,
            retry_policy=RetryPolicy(max_retries=MAX_RETRIES,
                                     backoff_base=1.0),
            lease_timeout=LEASE_TIMEOUT,
        )
        #: point_id -> [worker, deadline] of the leases out.
        self.held: dict[str, list] = {}
        #: point_id -> the (kind, error, digest) charges it took.
        self.charges = {point_id: [] for point_id in self.state.points}
        self.settled: list[str] = []
        self.failures: dict[str, dict] = {}

    def _pick_held(self, data) -> tuple[str, str]:
        point_id = data.draw(st.sampled_from(sorted(self.held)))
        worker, _ = self.held.pop(point_id)
        return point_id, worker

    @rule(worker=WORKERS, count=st.integers(1, 3))
    def lease(self, worker, count):
        for entry in self.state.lease(worker, count)["points"]:
            point_id = entry["point"]["point_id"]
            assert point_id not in self.held
            assert point_id not in self.settled
            assert entry["attempt"] == len(self.charges[point_id])
            self.held[point_id] = [worker, self.clock.now + LEASE_TIMEOUT]

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def complete(self, data):
        point_id, worker = self._pick_held(data)
        self.state.complete(worker, fake_record(point_id), 0, 0.1)

    @precondition(lambda self: self.held)
    @rule(data=st.data(), reported=st.booleans())
    def fail(self, data, reported):
        point_id, worker = self._pick_held(data)
        error = ValueError(
            f"{point_id} attempt {len(self.charges[point_id])}"
        )
        charge = ("exception", f"ValueError: {error}",
                  failure_digest(error))
        if reported:  # rendered by a host, as over HTTP
            self.state.fail(worker, point_id, *charge)
        else:
            self.state.fail(worker, point_id, "exception", error)
        self.charges[point_id].append(charge)

    @rule(data=st.data())
    def report_from_a_stranger(self, data):
        point_id = data.draw(st.sampled_from(sorted(self.charges)))
        verdict = self.state.fail("stranger", point_id, "exception",
                                  "E: late", "0" * 16)
        assert verdict["stale"] is True

    @rule()
    def expire(self):
        overdue = {point_id for point_id, (_, deadline)
                   in self.held.items() if deadline <= self.clock.now}
        assert set(self.state.expire_overdue()) == overdue
        for point_id in overdue:
            del self.held[point_id]
            self.charges[point_id].append(
                ("crash", LEASE_CRASH_ERROR, LEASE_CRASH_DIGEST)
            )

    @rule(worker=WORKERS)
    def release_uncharged(self, worker):
        mine = {point_id for point_id, (holder, _) in self.held.items()
                if holder == worker}
        assert set(self.state.release(worker)) == mine
        for point_id in mine:
            del self.held[point_id]

    @rule(worker=WORKERS)
    def heartbeat(self, worker):
        self.state.heartbeat(worker)
        for lease in self.held.values():
            if lease[0] == worker:
                lease[1] = self.clock.now + LEASE_TIMEOUT

    @rule(seconds=st.floats(0.0, 2 * LEASE_TIMEOUT))
    def advance_clock(self, seconds):
        self.clock.tick(seconds)

    @invariant()
    def agrees_with_the_model(self):
        self.state.settle(self._settled, self._quarantined)
        assert len(self.settled) == len(set(self.settled))
        assert self.state.terminal == self.failures
        assert set(self.state.leases) == set(self.held)
        for point_id, charges in self.charges.items():
            assert len(charges) <= MAX_RETRIES + 1
            assert self.state.tracker.attempts.get(point_id, 0) == len(
                charges)
            assert (point_id in self.failures) == (
                len(charges) == MAX_RETRIES + 1)
        assert self.state.finished == (
            len(self.settled) == len(self.state.points))

    @invariant()
    def terminal_records_ignore_the_interleaving(self):
        for point_id, charges in self.charges.items():
            alone = QueueState(
                None, [self.state.points[point_id]],
                retry_policy=RetryPolicy(max_retries=MAX_RETRIES,
                                         backoff_base=0.0),
            )
            for charge in charges:
                alone.lease("solo", 1)
                alone.fail("solo", point_id, *charge)
            assert alone.terminal.get(point_id) == \
                self.failures.get(point_id)

    def _settled(self, outcome) -> None:
        self.settled.append(outcome.point_id)

    def _quarantined(self, failure) -> None:
        self.settled.append(failure.point_id)
        self.failures[failure.point_id] = failure.record()


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
)
