"""Unit tests for the discrete-event scheduler (repro.engine.des)."""

from __future__ import annotations

import pytest

from repro.engine.des import EventScheduler
from repro.errors import ConfigurationError, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        scheduler.schedule_at(5.0, lambda s, t: fired.append("late"))
        scheduler.schedule_at(1.0, lambda s, t: fired.append("early"))
        scheduler.run_all()
        assert fired == ["early", "late"]
        assert scheduler.now == 5.0

    def test_fifo_among_equal_times(self):
        scheduler = EventScheduler()
        fired: list[int] = []
        for i in range(5):
            scheduler.schedule_at(1.0, lambda s, t, i=i: fired.append(i))
        scheduler.run_all()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_uses_now(self):
        scheduler = EventScheduler()
        times: list[float] = []
        def chain(s, t):
            times.append(t)
            if len(times) < 3:
                s.schedule_in(2.0, chain)
        scheduler.schedule_in(1.0, chain)
        scheduler.run_all()
        assert times == [1.0, 3.0, 5.0]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(5.0, lambda s, t: None)
        scheduler.run_all()
        with pytest.raises(SimulationError, match="before now"):
            scheduler.schedule_at(1.0, lambda s, t: None)

    def test_step_returns_event(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda s, t: None, name="tick")
        event = scheduler.step()
        assert event is not None and event.name == "tick"
        assert scheduler.step() is None


class TestRunUntil:
    def test_fires_only_up_to_horizon(self):
        scheduler = EventScheduler()
        fired: list[float] = []
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, lambda s, t: fired.append(t))
        count = scheduler.run_until(2.0)
        assert count == 2
        assert fired == [1.0, 2.0]
        assert scheduler.now == 2.0
        assert len(scheduler) == 1

    def test_horizon_before_now_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0)

    def test_max_events_guard(self):
        scheduler = EventScheduler()
        def respawn(s, t):
            s.schedule_in(0.1, respawn)
        scheduler.schedule_in(0.0, respawn)
        with pytest.raises(SimulationError, match="runaway"):
            scheduler.run_until(1e9, max_events=100)

    def test_max_events_fires_exactly_that_many(self):
        # Regression: the guard used to fire max_events + 1 events
        # before raising.
        scheduler = EventScheduler()
        fired: list[float] = []
        def respawn(s, t):
            fired.append(t)
            s.schedule_in(0.1, respawn)
        scheduler.schedule_in(0.0, respawn)
        with pytest.raises(SimulationError):
            scheduler.run_until(1e9, max_events=100)
        assert len(fired) == 100
        assert scheduler.events_fired == 100

    def test_run_all_max_events_fires_exactly_that_many(self):
        scheduler = EventScheduler()
        fired: list[float] = []
        def respawn(s, t):
            fired.append(t)
            s.schedule_in(0.1, respawn)
        scheduler.schedule_in(0.0, respawn)
        with pytest.raises(SimulationError):
            scheduler.run_all(max_events=50)
        assert len(fired) == 50

    def test_max_events_not_tripped_when_queue_drains_at_bound(self):
        scheduler = EventScheduler()
        for i in range(10):
            scheduler.schedule_at(float(i), lambda s, t: None)
        assert scheduler.run_until(100.0, max_events=10) == 10


class TestPeriodic:
    def test_fires_every_interval(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        scheduler.schedule_periodic(1.0, lambda s, t: ticks.append(t))
        scheduler.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_cancel_stops_future_firings(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        handle = scheduler.schedule_periodic(
            1.0, lambda s, t: ticks.append(t)
        )
        scheduler.run_until(2.5)
        handle.cancel()
        scheduler.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_start_in_override(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        scheduler.schedule_periodic(
            2.0, lambda s, t: ticks.append(t), start_in=0.5
        )
        scheduler.run_until(5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_self_cancel_inside_handler(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        def tick(s, t):
            ticks.append(t)
            if len(ticks) == 2:
                handle.cancel()
        handle = scheduler.schedule_periodic(1.0, tick)
        scheduler.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_no_accumulated_drift(self):
        # Regression: rescheduling via now + interval accumulated one
        # float rounding error per tick; tick k must fire at the exact
        # float k * interval. 0.1 is the classic non-representable
        # interval: summing it 1000 times gives 99.9999999999986.
        scheduler = EventScheduler()
        ticks: list[float] = []
        scheduler.schedule_periodic(0.1, lambda s, t: ticks.append(t))
        scheduler.run_until(100.0, max_events=2000)
        assert len(ticks) == 1000
        assert ticks[999] == 100.0
        assert all(ticks[k] == (k + 1) * 0.1 for k in range(1000))

    def test_no_drift_with_start_in(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        scheduler.schedule_periodic(
            0.1, lambda s, t: ticks.append(t), start_in=0.25
        )
        scheduler.run_until(50.0, max_events=1000)
        assert ticks[0] == 0.25
        assert all(
            ticks[k] == 0.25 + k * 0.1 for k in range(len(ticks))
        )

    def test_drift_free_from_nonzero_base(self):
        # Periodic schedules anchored mid-simulation multiply from
        # their base time instead of accumulating from it.
        scheduler = EventScheduler()
        scheduler.run_until(7.0)
        ticks: list[float] = []
        scheduler.schedule_periodic(0.1, lambda s, t: ticks.append(t))
        scheduler.run_until(107.0, max_events=2000)
        assert ticks[999] == 7.0 + 100.0


class TestBookkeeping:
    def test_len_counts_pending_events(self):
        scheduler = EventScheduler()
        assert len(scheduler) == 0
        for time in (3.0, 1.0, 2.0):
            scheduler.schedule_at(time, lambda s, t: None)
        assert len(scheduler) == 3
        scheduler.step()
        assert len(scheduler) == 2

    def test_events_fired_counts_across_calls(self):
        scheduler = EventScheduler()
        for time in (1.0, 2.0, 3.0, 4.0):
            scheduler.schedule_at(time, lambda s, t: None)
        scheduler.step()
        scheduler.run_until(2.5)
        scheduler.run_all()
        assert scheduler.events_fired == 4

    def test_step_on_empty_queue_keeps_time(self):
        scheduler = EventScheduler()
        scheduler.run_until(4.0)
        assert scheduler.step() is None
        assert scheduler.now == 4.0
        assert scheduler.events_fired == 0

    def test_step_advances_now_before_the_handler_runs(self):
        scheduler = EventScheduler()
        seen: list[float] = []
        scheduler.schedule_at(2.5, lambda s, t: seen.append(s.now))
        scheduler.step()
        assert seen == [2.5]

    def test_run_all_returns_count_and_leaves_now_at_last_event(self):
        scheduler = EventScheduler()
        for time in (0.5, 4.0, 2.0):
            scheduler.schedule_at(time, lambda s, t: None)
        assert scheduler.run_all() == 3
        assert scheduler.now == 4.0
        assert scheduler.run_all() == 0

    def test_run_until_on_empty_queue_moves_to_horizon(self):
        scheduler = EventScheduler()
        assert scheduler.run_until(9.0) == 0
        assert scheduler.now == 9.0

    def test_event_ordering_is_time_then_sequence(self):
        scheduler = EventScheduler()
        late = scheduler.schedule_at(2.0, lambda s, t: None)
        first = scheduler.schedule_at(1.0, lambda s, t: None)
        second = scheduler.schedule_at(1.0, lambda s, t: None)
        assert first < second < late
        assert not late < first

    def test_event_carries_its_name(self):
        scheduler = EventScheduler()
        event = scheduler.schedule_in(1.0, lambda s, t: None, name="ping")
        assert (event.time, event.name) == (1.0, "ping")


class TestSchedulingRules:
    def test_schedule_at_now_is_allowed(self):
        scheduler = EventScheduler()
        scheduler.run_until(3.0)
        fired: list[float] = []
        scheduler.schedule_at(3.0, lambda s, t: fired.append(t))
        scheduler.run_all()
        assert fired == [3.0]

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.schedule_in(-0.1, lambda s, t: None)
        assert len(scheduler) == 0

    def test_zero_delay_fires_after_events_already_due_now(self):
        scheduler = EventScheduler()
        fired: list[str] = []

        def first(s, t):
            fired.append("first")
            s.schedule_in(0.0, lambda s, t: fired.append("follow-up"))

        scheduler.schedule_at(1.0, first)
        scheduler.schedule_at(1.0, lambda s, t: fired.append("second"))
        scheduler.run_all()
        assert fired == ["first", "second", "follow-up"]

    def test_follow_ups_inside_the_horizon_fire_in_the_same_run(self):
        scheduler = EventScheduler()
        fired: list[float] = []

        def spawn(s, t):
            fired.append(t)
            s.schedule_in(1.0, lambda s, t: fired.append(t))
            s.schedule_in(5.0, lambda s, t: fired.append(t))

        scheduler.schedule_at(1.0, spawn)
        assert scheduler.run_until(3.0) == 2
        assert fired == [1.0, 2.0]
        assert len(scheduler) == 1

    def test_run_all_default_bound_stops_a_runaway_loop(self):
        scheduler = EventScheduler()

        def respawn(s, t):
            s.schedule_in(0.0, respawn)

        scheduler.schedule_in(0.0, respawn)
        with pytest.raises(SimulationError, match="runaway"):
            scheduler.run_all(max_events=1000)
        assert scheduler.events_fired == 1000


class TestPeriodicRules:
    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_non_positive_interval_rejected(self, interval):
        scheduler = EventScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.schedule_periodic(interval, lambda s, t: None)
        assert len(scheduler) == 0

    def test_negative_start_in_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.schedule_periodic(
                1.0, lambda s, t: None, start_in=-1.0)

    def test_start_in_zero_fires_now(self):
        scheduler = EventScheduler()
        scheduler.run_until(2.0)
        ticks: list[float] = []
        scheduler.schedule_periodic(
            1.5, lambda s, t: ticks.append(t), start_in=0.0)
        scheduler.run_until(5.0)
        assert ticks == [2.0, 3.5, 5.0]

    def test_handle_reports_its_settings(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule_periodic(
            2.0, lambda s, t: None, name="amortize")
        assert (handle.name, handle.interval, handle.cancelled) == (
            "amortize", 2.0, False)
        handle.cancel()
        assert handle.cancelled

    def test_cancel_before_first_tick_fires_nothing(self):
        scheduler = EventScheduler()
        ticks: list[float] = []
        handle = scheduler.schedule_periodic(
            1.0, lambda s, t: ticks.append(t))
        handle.cancel()
        scheduler.run_until(10.0)
        assert ticks == []
        assert len(scheduler) == 0

    def test_one_event_pending_per_periodic(self):
        scheduler = EventScheduler()
        scheduler.schedule_periodic(1.0, lambda s, t: None)
        scheduler.schedule_periodic(0.3, lambda s, t: None)
        for horizon in (0.5, 2.0, 7.9):
            scheduler.run_until(horizon)
            assert len(scheduler) == 2

    def test_interleaved_periodics_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired: list[tuple[str, float]] = []
        scheduler.schedule_periodic(
            2.0, lambda s, t: fired.append(("slow", t)))
        scheduler.schedule_periodic(
            1.0, lambda s, t: fired.append(("fast", t)))
        scheduler.run_until(4.0)
        assert fired == [("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
                         ("fast", 3.0), ("slow", 4.0), ("fast", 4.0)]
