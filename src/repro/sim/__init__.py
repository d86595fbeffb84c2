"""Discrete-event simulation kernel: event loop, processes, resources, RNG.

:mod:`.sanitizer` holds the opt-in determinism sanitizer that hashes the
events this kernel records in its :class:`~.core.EventTrace`.
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
from .queues import HeapQueue
from .random import RngRegistry
from .resources import Container, PriorityStore, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
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
]
