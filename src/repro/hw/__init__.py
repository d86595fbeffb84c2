"""Hardware substrate: processor, energy and accounting models."""

from . import catalog
from .accounting import TaskAccounting
from .energy import EnergyMeter, EVBattery
from .processor import ProcessorKind, ProcessorModel, WorkloadClass

__all__ = [
    "EVBattery",
    "EnergyMeter",
    "ProcessorKind",
    "ProcessorModel",
    "TaskAccounting",
    "WorkloadClass",
    "catalog",
]
