"""Workload generators: driver-behaviour data and canonical service graphs."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .driving import (
        FEATURES,
        MANEUVERS,
        DriverProfile,
        driver_dataset,
        fleet_dataset,
        maneuver_window,
        random_profile,
    )
    from .services import (
        STANDARD_MIX,
        adas_frame_graph,
        amber_search_graph,
        diagnostics_graph,
        infotainment_chunk_graph,
    )
    from .styles import STYLES, WorkloadStyle

__all__ = [
    "DriverProfile",
    "FEATURES",
    "MANEUVERS",
    "STANDARD_MIX",
    "STYLES",
    "WorkloadStyle",
    "adas_frame_graph",
    "amber_search_graph",
    "diagnostics_graph",
    "driver_dataset",
    "fleet_dataset",
    "infotainment_chunk_graph",
    "maneuver_window",
    "random_profile",
]

__getattr__, __dir__ = _lazy_exports(__name__)
