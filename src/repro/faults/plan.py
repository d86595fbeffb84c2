"""Deterministic fault plans: what breaks, when, and for how long.

OpenVDAP's core premise (paper SIII-A, SIV-C) is that the vehicular
environment is *unreliable*: processors overheat and throttle, DSRC links
drop during handoff, the cellular path to the cloud disappears in tunnels,
and collectors stall.  A :class:`FaultPlan` is the ground truth of one such
adverse episode -- an explicit, seed-derived schedule of
:class:`FaultEvent` windows.

Plans are *data*, not behaviour: the :class:`~repro.faults.injector.
FaultInjector` replays a plan on the simulation clock, and the resilience
machinery (executor retries, circuit breakers, elastic failover) reacts.
Because generation draws every window from a named
:class:`~repro.sim.random.RngRegistry` stream keyed by (kind, target),
identical seeds yield byte-identical plans -- pinned by
``tests/property/test_fault_determinism.py`` -- and adding a new target
never perturbs the windows of existing ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..sim.random import RngRegistry

__all__ = ["FaultKind", "FaultEvent", "FaultRates", "FaultPlan", "DEFAULT_RATES"]


class FaultKind(enum.Enum):
    """The failure modes the platform models, one per layer it can hit."""

    PROCESSOR_DOWN = "processor_down"      # device crash / thermal shutdown
    PROCESSOR_SLOW = "processor_slow"      # thermal throttling: severity = slowdown factor
    LINK_DOWN = "link_down"                # handoff outage, tunnel, jammed RF
    LINK_DEGRADED = "link_degraded"        # severity = bandwidth retained (0..1)
    SERVICE_CRASH = "service_crash"        # a pipeline stage / EdgeOS service dies
    COLLECTOR_DROPOUT = "collector_dropout"  # a DDI collector stops sampling
    CLOUD_UNREACHABLE = "cloud_unreachable"  # the uplink's far end is gone


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: a component is faulty during [start, start+duration)."""

    kind: FaultKind
    target: str
    start_s: float
    duration_s: float
    severity: float = 1.0

    def __post_init__(self):
        if self.start_s < 0:
            raise ValueError(f"fault start must be non-negative, got {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration_s}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def trace_line(self) -> str:
        """Canonical one-line rendering (the determinism contract)."""
        return (
            f"{self.start_s:.6f} +{self.duration_s:.6f} "
            f"{self.kind.value} {self.target} sev={self.severity:.4f}"
        )


@dataclass(frozen=True)
class FaultRates:
    """Poisson-process knobs for one fault kind on one class of target.

    ``mtbf_s`` is the mean time between fault onsets (exponential gaps);
    ``mttr_s`` the mean window duration.  ``severity`` bounds the uniform
    severity draw (slowdown factor for PROCESSOR_SLOW, retained bandwidth
    fraction for LINK_DEGRADED; ignored by the binary kinds).
    """

    mtbf_s: float
    mttr_s: float
    severity: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("mtbf/mttr must be positive")


#: A harsh-but-survivable default mix, roughly one episode per component
#: per few minutes of drive -- the "fault storm" the ablation uses.
DEFAULT_RATES: dict[FaultKind, FaultRates] = {
    FaultKind.PROCESSOR_DOWN: FaultRates(mtbf_s=120.0, mttr_s=8.0),
    FaultKind.PROCESSOR_SLOW: FaultRates(mtbf_s=90.0, mttr_s=15.0, severity=(2.0, 6.0)),
    FaultKind.LINK_DOWN: FaultRates(mtbf_s=60.0, mttr_s=5.0),
    FaultKind.LINK_DEGRADED: FaultRates(mtbf_s=45.0, mttr_s=12.0, severity=(0.05, 0.5)),
    FaultKind.SERVICE_CRASH: FaultRates(mtbf_s=180.0, mttr_s=10.0),
    FaultKind.COLLECTOR_DROPOUT: FaultRates(mtbf_s=150.0, mttr_s=20.0),
    FaultKind.CLOUD_UNREACHABLE: FaultRates(mtbf_s=90.0, mttr_s=10.0),
}


@dataclass(frozen=True)
class FaultPlan:
    """A seed-stamped, time-sorted schedule of fault windows."""

    seed: int
    horizon_s: float
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(
                sorted(
                    self.events,
                    key=lambda e: (e.start_s, e.kind.value, e.target, e.duration_s),
                )
            ),
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        processors: list[str] | None = None,
        links: list[str] | None = None,
        services: list[str] | None = None,
        collectors: list[str] | None = None,
        cloud: bool = True,
        rates: dict[FaultKind, FaultRates] | None = None,
    ) -> "FaultPlan":
        """Draw a plan from independent per-(kind, target) renewal processes.

        ``processors`` are ``"tier/device-name"`` keys, ``links`` are
        ``"a-b"`` tier-pair keys (see :mod:`repro.faults.injector` for the
        key helpers).  Every (kind, target) pair draws from its own named
        RNG stream, so the schedule for one component is independent of
        which other components exist.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        rates = {**DEFAULT_RATES, **(rates or {})}
        registry = RngRegistry(seed=seed)
        targets: list[tuple[FaultKind, str]] = []
        for proc in processors or []:
            targets.append((FaultKind.PROCESSOR_DOWN, proc))
            targets.append((FaultKind.PROCESSOR_SLOW, proc))
        for link in links or []:
            targets.append((FaultKind.LINK_DOWN, link))
            targets.append((FaultKind.LINK_DEGRADED, link))
        for service in services or []:
            targets.append((FaultKind.SERVICE_CRASH, service))
        for stream in collectors or []:
            targets.append((FaultKind.COLLECTOR_DROPOUT, stream))
        if cloud:
            targets.append((FaultKind.CLOUD_UNREACHABLE, "cloud"))

        events: list[FaultEvent] = []
        for kind, target in targets:
            rate = rates[kind]
            rng = registry.stream(f"fault/{kind.value}/{target}")
            t = float(rng.exponential(rate.mtbf_s))
            while t < horizon_s:
                duration = max(1e-3, float(rng.exponential(rate.mttr_s)))
                duration = min(duration, horizon_s - t)
                lo, hi = rate.severity
                severity = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
                events.append(FaultEvent(kind, target, t, duration, severity))
                # Next onset only after this window closes (no self-overlap).
                t += duration + float(rng.exponential(rate.mtbf_s))
        return cls(seed=seed, horizon_s=horizon_s, events=tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    # -- the determinism contract -----------------------------------------

    def trace(self) -> str:
        """Canonical text rendering; identical seeds => identical bytes."""
        header = f"# fault-plan seed={self.seed} horizon={self.horizon_s:.6f}"
        return "\n".join([header, *(e.trace_line() for e in self.events)])
