"""In-vehicle services: diagnostics, ADAS, AMBER search, V2V collab."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .adas import AdasAlert, AdasFrameReport, AdasService, make_adas_service
    from .amber import (
        AmberSearchService,
        PlateSighting,
        SearchHit,
        generate_sightings,
        make_amber_service,
    )
    from .collab import CollabReport, CollabVehicle, Platoon
    from .diagnostics import DiagnosticsService, Fault, Prediction

__all__ = [
    "AdasAlert",
    "AdasFrameReport",
    "AdasService",
    "AmberSearchService",
    "CollabReport",
    "CollabVehicle",
    "DiagnosticsService",
    "Fault",
    "PlateSighting",
    "Platoon",
    "Prediction",
    "SearchHit",
    "generate_sightings",
    "make_adas_service",
    "make_amber_service",
]

__getattr__, __dir__ = _lazy_exports(__name__)
