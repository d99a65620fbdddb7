"""Discrete-event simulation kernel (event calendar and queued resources)."""

from repro.sim.engine import (
    DeadlockError,
    EventEngine,
    SimulationError,
    TIME_INFINITY,
)
from repro.sim.resource import QueuedResource

__all__ = [
    "DeadlockError",
    "EventEngine",
    "QueuedResource",
    "SimulationError",
    "TIME_INFINITY",
]
