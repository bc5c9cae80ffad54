"""Discrete-event scheduler.

The ``time`` backend's transfers need wall-clock time: its fluid
wheel's release batches and completion slots are sequenced here.
:class:`EventScheduler` is a classic priority-queue DES kernel: events
fire in timestamp order (FIFO among equal timestamps), handlers may
schedule further events, and periodic events are first-class.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .._validation import require_non_negative, require_positive
from ..errors import SimulationError

__all__ = ["Event", "EventScheduler", "PeriodicEvent"]

#: An event handler receives the scheduler (to schedule follow-ups)
#: and the firing time.
Handler = Callable[["EventScheduler", float], None]


@dataclass(frozen=True)
class Event:
    """A scheduled event (internal queue entry)."""

    time: float
    sequence: int
    name: str
    handler: Handler = field(compare=False)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


@dataclass
class PeriodicEvent:
    """Handle for a repeating event; cancel via :meth:`cancel`."""

    name: str
    interval: float
    handler: Handler
    cancelled: bool = False

    def cancel(self) -> None:
        """Stop future firings (the current one completes).

        Only tests call this; it goes when :mod:`repro.engine` does.
        """
        self.cancelled = True


class EventScheduler:
    """Priority-queue discrete-event kernel."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._counter = itertools.count()
        self.now: float = 0.0
        self.events_fired: int = 0

    def __len__(self) -> int:
        return len(self._queue)

    def schedule_at(self, time: float, handler: Handler,
                    name: str = "event") -> Event:
        """Schedule *handler* at absolute *time* (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {name!r} at {time} before now ({self.now})"
            )
        event = Event(
            time=time, sequence=next(self._counter), name=name, handler=handler
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, handler: Handler,
                    name: str = "event") -> Event:
        """Schedule *handler* after *delay* time units.

        Only tests call this; it goes when :mod:`repro.engine` does.
        """
        require_non_negative(delay, "delay")
        return self.schedule_at(self.now + delay, handler, name)

    def schedule_periodic(self, interval: float, handler: Handler,
                          name: str = "periodic",
                          start_in: float | None = None) -> PeriodicEvent:
        """Schedule *handler* every *interval*, starting after one interval.

        Tick *k* fires at exactly ``start + k * interval`` (or
        ``start + start_in + (k - 1) * interval`` with an override),
        computed by multiplication from the scheduling time — never by
        repeated addition, whose accumulated float error would drift
        tick N away from ``N * interval`` and desynchronize periodic
        work (amortization ticks) from epoch timestamps.

        Returns a handle whose :meth:`PeriodicEvent.cancel` stops the
        repetition.
        """
        require_positive(interval, "interval")
        periodic = PeriodicEvent(name=name, interval=interval, handler=handler)
        base = self.now
        if start_in is not None:
            require_non_negative(start_in, "start_in")
            offset = start_in

            def tick_time(tick: int) -> float:
                return base + offset + (tick - 1) * interval
        else:

            def tick_time(tick: int) -> float:
                return base + tick * interval

        tick = 1

        def fire(scheduler: "EventScheduler", time: float) -> None:
            nonlocal tick
            if periodic.cancelled:
                return
            periodic.handler(scheduler, time)
            tick += 1
            if not periodic.cancelled:
                scheduler.schedule_at(
                    tick_time(tick), fire, periodic.name
                )

        self.schedule_at(tick_time(1), fire, name)
        return periodic

    def step(self) -> Event | None:
        """Fire the next event; returns it, or None if the queue is empty."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self.now = event.time
        self.events_fired += 1
        event.handler(self, event.time)
        return event

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Fire every event with ``time <= horizon``; returns count fired.

        ``max_events`` bounds runaway self-scheduling loops; exceeding
        it raises so the bug is loud.
        """
        if horizon < self.now:
            raise SimulationError(
                f"horizon {horizon} is before now ({self.now})"
            )
        fired = 0
        while self._queue and self._queue[0].time <= horizon:
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} before horizon "
                    f"{horizon}; runaway event loop?"
                )
            self.step()
            fired += 1
        self.now = horizon
        return fired

    def run_all(self, *, max_events: int = 1_000_000) -> int:
        """Fire until the queue drains; returns count fired."""
        fired = 0
        while self._queue:
            if fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway event loop?"
                )
            self.step()
            fired += 1
        return fired
