"""Replays a :class:`~repro.faults.plan.FaultPlan` on the simulation clock.

The injector is the bridge between a fault plan (pure data) and the live
platform: it walks the plan's windows as a simulation process, maintains
the current health state of every component, and lets consumers either

* **poll** -- ``processor_down(tier, name)``, ``link_down(a, b)``,
  ``cloud_unreachable()`` -- before starting work, or
* **subscribe** -- ``watch_down(key)`` fires when a component next fails
  (so an executing task can race its completion against the processor
  dying under it), and ``wait_up(key)`` fires when it recovers (so a
  retry loop can park until the link returns).

Every state transition is appended to :attr:`FaultInjector.trace`, a
``(time, transition, key)`` log whose rendering is byte-stable for a given
plan -- the injector adds no randomness of its own.
"""

from __future__ import annotations

from ..sim.core import Event, Simulator, raise_failure
from ..topology.nodes import Tier
from ..topology.world import World
from .plan import FaultEvent, FaultKind, FaultPlan

__all__ = [
    "FaultInjector",
    "processor_key",
    "link_key",
    "service_key",
    "collector_key",
    "CLOUD_KEY",
    "world_fault_targets",
]

#: Namespaced state key for the cloud endpoint's reachability.
CLOUD_KEY = "cloud:cloud"

#: Fault kinds that make a component binary-unavailable (vs. degraded).
_DOWN_KINDS = {
    FaultKind.PROCESSOR_DOWN,
    FaultKind.LINK_DOWN,
    FaultKind.SERVICE_CRASH,
    FaultKind.COLLECTOR_DROPOUT,
    FaultKind.CLOUD_UNREACHABLE,
}

_CATEGORY = {
    FaultKind.PROCESSOR_DOWN: "proc",
    FaultKind.PROCESSOR_SLOW: "proc",
    FaultKind.LINK_DOWN: "link",
    FaultKind.LINK_DEGRADED: "link",
    FaultKind.SERVICE_CRASH: "service",
    FaultKind.COLLECTOR_DROPOUT: "collector",
    FaultKind.CLOUD_UNREACHABLE: "cloud",
}


def processor_key(tier: str, name: str) -> str:
    """State key for one device: ``proc:<tier>/<device-name>``."""
    return f"proc:{tier}/{name}"


def link_key(a: str, b: str) -> str:
    """State key for one tier-pair link, order-insensitive."""
    return "link:" + "-".join(sorted((a, b)))


def service_key(name: str) -> str:
    """State key for one EdgeOS service / pipeline stage."""
    return f"service:{name}"


def collector_key(stream: str) -> str:
    """State key for one DDI collector stream."""
    return f"collector:{stream}"


def _state_key(event: FaultEvent) -> str:
    category = _CATEGORY[event.kind]
    # The formatted key *is* the product; callers cache per fault event.
    return CLOUD_KEY if category == "cloud" else f"{category}:{event.target}"


def world_fault_targets(world: World) -> tuple[list[str], list[str]]:
    """(processor, link) plan targets covering every component of a world.

    Processor targets are ``"tier/device"`` (matching :func:`processor_key`
    minus the namespace); link targets are the sorted tier-pair names.
    """
    processors: list[str] = []
    for tier in (Tier.VEHICLE, Tier.EDGE, Tier.CLOUD):
        try:
            node = world.node_for_tier(tier)
        except LookupError:
            continue
        processors.extend(f"{tier}/{proc.name}" for proc in node.processors)
    links = [
        "-".join(sorted((Tier.VEHICLE, Tier.EDGE))),
        "-".join(sorted((Tier.VEHICLE, Tier.CLOUD))),
        "-".join(sorted((Tier.EDGE, Tier.CLOUD))),
    ]
    return processors, links


class FaultInjector:
    """Drives a fault plan against live state on a shared simulator.

    If a ``world`` is supplied, LINK_DEGRADED windows are additionally
    *applied* to the world's link models (bandwidth scaled by the retained
    fraction, restored on recovery), so analytic consumers like
    ``evaluate_placement`` see degraded links without knowing about faults.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, world: World | None = None):
        self.sim = sim
        self.plan = plan
        self.world = world
        self.trace: list[tuple[float, str, str]] = []
        self._down_count: dict[str, int] = {}
        self._slow: dict[str, list[float]] = {}
        self._degrade: dict[str, list[float]] = {}
        self._down_watchers: dict[str, list[Event]] = {}
        self._up_waiters: dict[str, list[Event]] = {}
        self._nominal_bandwidth: dict[str, float] = {}
        self.process = None
        if plan.events:
            # A failed replay ends the run rather than leaving the rest of
            # the plan silently unapplied.
            self.process = sim.process(self._driver(), name="fault-injector")
            self.process.callbacks.append(raise_failure)

    # -- driver ------------------------------------------------------------

    def _timeline(self) -> list[tuple[float, int, FaultEvent, bool]]:
        """(time, phase, event, is_start); recoveries sort before onsets."""
        entries: list[tuple[float, int, FaultEvent, bool]] = []
        for event in self.plan.events:
            entries.append((event.start_s, 1, event, True))
            entries.append((event.end_s, 0, event, False))
        entries.sort(key=lambda e: (e[0], e[1], e[2].kind.value, e[2].target))
        return entries

    def _driver(self):
        for when, _phase, event, is_start in self._timeline():
            now = self.sim.now
            if when > now:
                yield self.sim.timeout(when - now)
            if is_start:
                self._apply(event)
            else:
                self._revert(event)

    # -- state transitions -------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        key = _state_key(event)
        if event.kind in _DOWN_KINDS:
            self._down_count[key] = self._down_count.get(key, 0) + 1
            if self._down_count[key] == 1:
                self._record("down", key)
                for watcher in self._down_watchers.pop(key, []):
                    watcher.succeed(key)
        elif event.kind is FaultKind.PROCESSOR_SLOW:
            self._slow.setdefault(key, []).append(event.severity)
            self._record("slow", key)
        elif event.kind is FaultKind.LINK_DEGRADED:
            self._degrade.setdefault(key, []).append(event.severity)
            self._record("degraded", key)
            self._apply_link_bandwidth(event.target, key)

    def _revert(self, event: FaultEvent) -> None:
        key = _state_key(event)
        if event.kind in _DOWN_KINDS:
            self._down_count[key] -= 1
            if self._down_count[key] == 0:
                self._record("up", key)
                for waiter in self._up_waiters.pop(key, []):
                    waiter.succeed(key)
        elif event.kind is FaultKind.PROCESSOR_SLOW:
            self._slow[key].remove(event.severity)
            self._record("slow-end", key)
        elif event.kind is FaultKind.LINK_DEGRADED:
            self._degrade[key].remove(event.severity)
            self._record("degraded-end", key)
            self._apply_link_bandwidth(event.target, key)

    def _record(self, transition: str, key: str) -> None:
        self.trace.append((self.sim.now, transition, key))

    def _apply_link_bandwidth(self, target: str, key: str) -> None:
        if self.world is None:
            return
        tiers = target.split("-")
        try:
            link = self.world.links.between(tiers[0], tiers[-1])
        except KeyError:
            return
        if key not in self._nominal_bandwidth:
            self._nominal_bandwidth[key] = link.bandwidth_mbps
        retained = min(self._degrade.get(key) or [1.0])
        link.bandwidth_mbps = max(1e-6, self._nominal_bandwidth[key] * retained)
        if not self._degrade.get(key):
            link.bandwidth_mbps = self._nominal_bandwidth.pop(key)

    # -- polling API -------------------------------------------------------

    def is_down(self, key: str) -> bool:
        """Whether the component behind a state key is currently down."""
        return self._down_count.get(key, 0) > 0

    def processor_down(self, tier: str, name: str) -> bool:
        """Whether one device is inside a PROCESSOR_DOWN window."""
        return self.is_down(processor_key(tier, name))

    def processor_slowdown(self, tier: str, name: str) -> float:
        """Current execution-time multiplier for a device (1.0 = healthy)."""
        factors = self._slow.get(processor_key(tier, name))
        return max(factors) if factors else 1.0

    def link_down(self, a: str, b: str) -> bool:
        """Whether the link between two tiers is inside an outage window."""
        return self.is_down(link_key(a, b))

    def collector_down(self, stream: str) -> bool:
        """Whether a DDI collector stream is inside a dropout window."""
        return self.is_down(collector_key(stream))

    def cloud_unreachable(self) -> bool:
        """Whether the cloud endpoint is currently unreachable."""
        return self.is_down(CLOUD_KEY)

    # -- subscription API --------------------------------------------------

    def watch_down(self, key: str) -> Event:
        """Event firing the next time ``key`` transitions up -> down.

        If the component is *already* down this still waits for the next
        onset; poll :meth:`is_down` first.  A component that never fails
        again leaves the event pending forever -- always race it against
        the work it guards, never wait on it alone.
        """
        event = self.sim.event()
        self._down_watchers.setdefault(key, []).append(event)
        return event

    def wait_up(self, key: str) -> Event:
        """Event firing when ``key`` recovers; immediate if already up."""
        event = self.sim.event()
        if not self.is_down(key):
            event.succeed(key)
        else:
            self._up_waiters.setdefault(key, []).append(event)
        return event
