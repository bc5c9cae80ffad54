"""Property-based tests for the DES kernel's ordering and guard
semantics (the timing bugs fixed alongside the time-domain backend).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.des import EventScheduler
from repro.errors import SimulationError

times = st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False)


class TestOrdering:
    @given(st.lists(times, min_size=1, max_size=60))
    def test_fifo_among_equal_timestamps(self, values):
        # Events at the same instant fire in scheduling order, no
        # matter how ties interleave with other times.
        scheduler = EventScheduler()
        fired: list[tuple[float, int]] = []
        for seq, value in enumerate(values):
            scheduler.schedule_at(
                value, lambda s, t, seq=seq: fired.append((t, seq))
            )
        scheduler.run_all()
        assert fired == sorted(fired)

    @given(st.lists(times, min_size=1, max_size=40), times)
    def test_run_until_lands_on_horizon_with_future_intact(
            self, values, horizon):
        scheduler = EventScheduler()
        for value in values:
            scheduler.schedule_at(value, lambda s, t: None)
        scheduler.run_until(horizon)
        # The clock always advances exactly to the horizon...
        assert scheduler.now == horizon
        # ...and strictly-future events survive, unfired.
        assert len(scheduler) == sum(1 for v in values if v > horizon)
        later = [v for v in values if v > horizon]
        scheduler.run_all()
        assert scheduler.now == (max(later) if later else horizon)

    @given(st.floats(min_value=0.01, max_value=5.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=0, max_value=20))
    def test_cancel_during_fire_stops_future_ticks(
            self, interval, kill_after):
        # A periodic handle cancelled from *inside* the event loop —
        # by an unrelated event firing between ticks — must suppress
        # every later firing, even when the cancel lands at the exact
        # timestamp of an already-queued tick (the queued closure must
        # observe the flag, not fire one last time).
        scheduler = EventScheduler()
        ticks: list[float] = []
        handle = scheduler.schedule_periodic(
            interval, lambda s, t: ticks.append(t)
        )
        kill_time = (kill_after + 1) * interval
        scheduler.schedule_at(kill_time, lambda s, t: handle.cancel())
        scheduler.schedule_at(
            kill_time + 10 * interval, lambda s, t: None
        )
        scheduler.run_all(max_events=kill_after + 30)
        # The killer shares its timestamp with tick kill_after + 1.
        # FIFO among equal timestamps decides: the very first tick was
        # queued at setup before the killer, so for kill_after == 0 it
        # still fires; every later tick is queued by its predecessor
        # (after the killer), so the cancelled flag suppresses it at
        # the shared instant — cancel-during-fire never fires a stale
        # closure.
        assert len(ticks) == max(1, kill_after)
        assert all(
            tick == (index + 1) * interval
            for index, tick in enumerate(ticks)
        )

    @given(st.lists(times, min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time(self, values):
        scheduler = EventScheduler()
        fired: list[float] = []
        for value in values:
            scheduler.schedule_at(value, lambda s, t: fired.append(t))
        scheduler.run_all()
        assert fired == sorted(fired)
        assert len(fired) == len(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=100.0))
    def test_run_until_partitions_events(self, values, horizon):
        scheduler = EventScheduler()
        for value in values:
            scheduler.schedule_at(value, lambda s, t: None)
        fired = scheduler.run_until(horizon)
        assert fired == sum(1 for t in values if t <= horizon)
        assert len(scheduler) == len(values) - fired


class TestGuards:
    @given(st.integers(min_value=1, max_value=200))
    def test_max_events_is_exact(self, bound):
        # Exactly `bound` events fire before the runaway guard raises.
        scheduler = EventScheduler()
        fired: list[float] = []

        def respawn(s, t):
            fired.append(t)
            s.schedule_in(1.0, respawn)

        scheduler.schedule_in(0.0, respawn)
        with pytest.raises(SimulationError):
            scheduler.run_all(max_events=bound)
        assert len(fired) == bound

    @given(st.integers(min_value=1, max_value=100))
    def test_bound_never_trips_on_exactly_bound_events(self, count):
        scheduler = EventScheduler()
        for i in range(count):
            scheduler.schedule_at(float(i), lambda s, t: None)
        assert scheduler.run_all(max_events=count) == count

    @settings(max_examples=25)
    @given(st.floats(min_value=0.01, max_value=10.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=500))
    def test_periodic_tick_k_is_exact_multiple(self, interval, k):
        # The drift fix: tick k fires at the float k * interval, not
        # at an accumulated sum of k additions.
        scheduler = EventScheduler()
        ticks: list[float] = []
        scheduler.schedule_periodic(
            interval, lambda s, t: ticks.append(t)
        )
        scheduler.run_until(k * interval, max_events=k + 1)
        assert ticks
        assert ticks[-1] == len(ticks) * interval
        assert all(
            tick == (index + 1) * interval
            for index, tick in enumerate(ticks)
        )
