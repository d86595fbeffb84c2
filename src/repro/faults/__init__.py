"""Fault model: deterministic injection plans plus resilience primitives.

The unreliable-environment half of the OpenVDAP argument (paper SIII-A,
SIV-C): :mod:`repro.faults.plan` describes *what breaks when* as
seed-reproducible data, :mod:`repro.faults.injector` replays a plan on the
simulation clock, and :mod:`repro.faults.resilience` supplies the
retry/backoff and circuit-breaker machinery the rest of the platform uses
to survive it.  :mod:`repro.faults.prockill` targets the layer underneath
the simulation -- OS worker processes hosting fleet partitions
(:mod:`repro.fleet`) -- with seed-deterministic SIGKILL schedules.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .injector import (
        CLOUD_KEY,
        FaultInjector,
        collector_key,
        link_key,
        processor_key,
        service_key,
        world_fault_targets,
    )
    from .plan import DEFAULT_RATES, FaultEvent, FaultKind, FaultPlan, FaultRates
    from .prockill import KillPhase, KillPlan, WorkerKill
    from .resilience import BreakerState, CircuitBreaker, CircuitOpenError, RetryPolicy

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "CLOUD_KEY",
    "DEFAULT_RATES",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRates",
    "KillPhase",
    "KillPlan",
    "RetryPolicy",
    "WorkerKill",
    "collector_key",
    "link_key",
    "processor_key",
    "service_key",
    "world_fault_targets",
]

__getattr__, __dir__ = _lazy_exports(__name__)
