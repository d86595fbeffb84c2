"""Discrete-event simulation kernel: event loop, processes, resources, RNG.

A simulator's :class:`~.core.EventTrace` (``sim.attach_trace()``) is its
own record of every event it fires: a digest two same-seed runs must
share and, when kept, the first event where two runs differ.
"""

from .core import (
    AllOf,
    Event,
    Interrupt,
    Process,
    Race,
    SimulationError,
    Simulator,
    Timeout,
)
from .queues import HeapQueue
from .random import RngRegistry
from .resources import Resource

__all__ = [
    "AllOf",
    "Event",
    "HeapQueue",
    "Interrupt",
    "Process",
    "Race",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
]
