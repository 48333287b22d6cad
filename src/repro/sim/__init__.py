"""Discrete-event simulation kernel.

Time is measured in nanoseconds (floats).  The kernel is deliberately
small: an event heap (:class:`~repro.sim.engine.Engine`), FIFO resources
with queueing (:mod:`repro.sim.resource`), reproducible named random
streams (:mod:`repro.sim.rng`), and the one observer slot every layer
reports through (:mod:`repro.sim.probe`).
"""

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.resource import Resource
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "ScheduledEvent",
    "Resource",
    "RngStreams",
]
