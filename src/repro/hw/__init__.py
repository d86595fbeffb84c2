"""Hardware substrate: processor and energy models."""

from . import catalog
from .energy import EnergyMeter, EVBattery
from .processor import ProcessorKind, ProcessorModel, WorkloadClass

__all__ = [
    "EVBattery",
    "EnergyMeter",
    "ProcessorKind",
    "ProcessorModel",
    "WorkloadClass",
    "catalog",
]
