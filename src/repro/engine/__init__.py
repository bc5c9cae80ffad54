"""Discrete-event scheduler for the simulation's time-based behaviour.

:class:`~repro.engine.des.EventScheduler` drives the ``time``
backend's event wheel.
"""

from .des import Event, EventScheduler, PeriodicEvent

__all__ = ["Event", "EventScheduler", "PeriodicEvent"]
