"""Discrete-event simulation kernel: event loop, processes, resources, RNG.

:mod:`.sanitizer` holds the opt-in determinism sanitizer that hashes the
events this kernel fires through its trace tap.
"""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    KernelCheckpoint,
    Process,
    Race,
    SimulationError,
    Simulator,
    Timeout,
)
from .queues import CalendarQueue, EventQueue, HeapQueue, make_queue
from .random import RngRegistry
from .resources import Container, PriorityStore, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Container",
    "Event",
    "EventQueue",
    "HeapQueue",
    "Interrupt",
    "KernelCheckpoint",
    "PriorityStore",
    "Process",
    "Race",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "make_queue",
]
