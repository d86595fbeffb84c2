"""EdgeOS health watchdog: per-component liveness from heartbeats.

Every platform component that matters to scheduling -- a tier's node, an
EdgeOS service, a DDI collector -- is registered with the watchdog and
expected to heartbeat periodically.  :meth:`HealthWatchdog.sweep` (called
from the platform's housekeeping loop, or once per elastic retune) marks a
component down after ``miss_threshold`` missed intervals and back up on
the next heartbeat, keeping a flap count and a transition log.

The watchdog is the *consumer-facing* health truth: the fault injector
knows the ground truth of the plan, but the platform only learns about a
failure the way a real one would -- by silence.  :meth:`drive` wires the
two together for simulations: it spawns a process that heartbeats on
behalf of every component the injector currently reports as up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim.core import Simulator, raise_failure

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector

__all__ = ["ComponentHealth", "HealthWatchdog"]


@dataclass
class ComponentHealth:
    """Liveness record for one watched component."""

    name: str
    last_heartbeat_s: float
    healthy: bool = True
    flaps: int = 0                      # up->down transitions
    down_since_s: float | None = None
    total_down_s: float = 0.0
    meta: dict = field(default_factory=dict)


class HealthWatchdog:
    """Tracks component liveness and answers "is it safe to place work there".

    ``tier:<name>`` component names get first-class treatment via
    :meth:`tier_healthy`, which the ElasticManager's failover consults.
    """

    def __init__(self, heartbeat_interval_s: float = 1.0, miss_threshold: int = 3):
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss threshold must be >= 1")
        self.heartbeat_interval_s = heartbeat_interval_s
        self.miss_threshold = miss_threshold
        self._components: dict[str, ComponentHealth] = {}
        self.transitions: list[tuple[float, str, str]] = []  # (t, event, name)

    # -- registration / reporting -----------------------------------------

    def register(self, name: str, now_s: float = 0.0, **meta) -> ComponentHealth:
        """Start watching a component (idempotent)."""
        if name not in self._components:
            self._components[name] = ComponentHealth(
                name=name, last_heartbeat_s=now_s, meta=dict(meta)
            )
        return self._components[name]

    def heartbeat(self, name: str, now_s: float) -> None:
        """A component reported in; revives it if it was marked down."""
        comp = self._components.get(name)
        if comp is None:
            comp = self.register(name, now_s)
        comp.last_heartbeat_s = now_s
        if not comp.healthy:
            comp.healthy = True
            if comp.down_since_s is not None:
                comp.total_down_s += now_s - comp.down_since_s
            comp.down_since_s = None
            self.transitions.append((now_s, "up", name))

    def sweep(self, now_s: float) -> list[str]:
        """Mark silent components down; returns the newly-down names."""
        deadline = self.heartbeat_interval_s * self.miss_threshold
        newly_down = []
        for comp in self._components.values():
            if comp.healthy and now_s - comp.last_heartbeat_s > deadline:
                comp.healthy = False
                comp.flaps += 1
                comp.down_since_s = now_s
                newly_down.append(comp.name)
                self.transitions.append((now_s, "down", comp.name))
        return newly_down

    # -- queries -----------------------------------------------------------

    def healthy(self, name: str) -> bool:
        """Liveness of one component; unknown components count as healthy."""
        comp = self._components.get(name)
        return comp.healthy if comp is not None else True

    def tier_healthy(self, tier: str) -> bool:
        """Whether a placement tier is safe: its ``tier:<name>`` component
        (if watched) is alive."""
        return self.healthy(f"tier:{tier}")

    def component(self, name: str) -> ComponentHealth:
        """The full record for one component (KeyError if unwatched)."""
        return self._components[name]

    def status(self) -> dict[str, bool]:
        """Snapshot: component name -> liveness."""
        return {name: comp.healthy for name, comp in self._components.items()}

    # -- simulation wiring -------------------------------------------------

    def drive(
        self,
        sim: Simulator,
        faults: FaultInjector,
        components: dict[str, str],
        horizon_s: float,
    ):
        """Spawn a process heartbeating for fault-injected components.

        ``components`` maps watchdog component names to injector state keys
        (e.g. ``{"tier:edge": "proc:edge/edge-gpu"}``); while a key is up
        in the injector, its component heartbeats every interval, so the
        watchdog observes the fault plan the way a monitor would -- through
        missed heartbeats, ``miss_threshold`` intervals late.  A pulse
        that raises ends the run: its exception propagates out of the
        ``sim.run`` that fires the failure.
        """
        for name in components:
            self.register(name, now_s=sim.now)

        def pulse():
            while sim.now < horizon_s:
                for name, key in components.items():
                    if not faults.is_down(key):
                        self.heartbeat(name, sim.now)
                self.sweep(sim.now)
                yield sim.timeout(self.heartbeat_interval_s)

        process = sim.process(pulse(), name="health-watchdog")
        process.callbacks.append(raise_failure)
        return process
