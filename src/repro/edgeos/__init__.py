"""EdgeOSv: elastic management, security, privacy, and data sharing."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .elastic import GOAL_ENERGY, GOAL_LATENCY, ElasticManager, PipelineChoice
    from .firewall import Direction, Firewall, Interface, PacketMeta, Rule
    from .migration import MigrationManager, MigrationOffer, MigrationResult
    from .pipelines import downward_closed_cuts, generate_pipelines, service_from_graph
    from .privacy import LocationFuzzer, PseudonymManager
    from .security import AttestationError, Container, SecurityModule, TEEEnclave
    from .service import Pipeline, PolymorphicService, ServiceState
    from .sharing import AccessDenied, DataSharingBus, SharedRecord
    from .watchdog import ComponentHealth, HealthWatchdog

__all__ = [
    "AccessDenied",
    "AttestationError",
    "ComponentHealth",
    "Container",
    "DataSharingBus",
    "downward_closed_cuts",
    "generate_pipelines",
    "service_from_graph",
    "Direction",
    "ElasticManager",
    "Firewall",
    "Interface",
    "PacketMeta",
    "Rule",
    "GOAL_ENERGY",
    "GOAL_LATENCY",
    "HealthWatchdog",
    "LocationFuzzer",
    "MigrationManager",
    "MigrationOffer",
    "MigrationResult",
    "Pipeline",
    "PipelineChoice",
    "PolymorphicService",
    "PseudonymManager",
    "SecurityModule",
    "ServiceState",
    "SharedRecord",
    "TEEEnclave",
]

__getattr__, __dir__ = _lazy_exports(__name__)
