"""Discrete-event scheduler for the simulation's time-based behaviour.

:class:`~repro.engine.des.EventScheduler` drives the ``time``
backend's event wheel and the churn model's session and downtime
timers.
"""

from .des import Event, EventScheduler, PeriodicEvent

__all__ = ["Event", "EventScheduler", "PeriodicEvent"]
