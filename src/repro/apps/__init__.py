"""In-vehicle services: diagnostics, ADAS, infotainment, AMBER search, V2V collab."""

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
    from .infotainment import BitrateLadder, PlaybackReport, StreamingSession

__all__ = [
    "AdasAlert",
    "AdasFrameReport",
    "AdasService",
    "AmberSearchService",
    "BitrateLadder",
    "CollabReport",
    "CollabVehicle",
    "DiagnosticsService",
    "Fault",
    "PlateSighting",
    "PlaybackReport",
    "Platoon",
    "Prediction",
    "SearchHit",
    "StreamingSession",
    "generate_sightings",
    "make_adas_service",
    "make_amber_service",
]

__getattr__, __dir__ = _lazy_exports(__name__)
