"""DDI: driving data integrator (collectors, two-tier store, service API)."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .can import EV_POWERTRAIN, CanCollector, CanFrame, CanMessageSpec, CanSignal
    from .collectors import (
        Collector,
        OBDCollector,
        SocialCollector,
        TrafficCollector,
        WeatherCollector,
    )
    from .diskdb import DiskDB, Record
    from .memdb import CacheStats, MemDB
    from .service import DDIService, DownloadResult
    from .uplink import CloudDataServer, MigrationStats, UplinkMigrator

__all__ = [
    "CacheStats",
    "CanCollector",
    "CanFrame",
    "CanMessageSpec",
    "CanSignal",
    "EV_POWERTRAIN",
    "CloudDataServer",
    "MigrationStats",
    "UplinkMigrator",
    "Collector",
    "DDIService",
    "DiskDB",
    "DownloadResult",
    "MemDB",
    "OBDCollector",
    "Record",
    "SocialCollector",
    "TrafficCollector",
    "WeatherCollector",
]

__getattr__, __dir__ = _lazy_exports(__name__)
