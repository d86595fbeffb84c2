"""Tests for replaying fault plans on the simulation clock."""

from repro.faults import (
    CLOUD_KEY,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    link_key,
    world_fault_targets,
)
from repro.sim import Simulator
from repro.topology import Tier, build_default_world


def manual_plan(*events):
    return FaultPlan(seed=0, horizon_s=100.0, events=tuple(events))


def test_down_up_transitions_follow_the_plan():
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_DOWN, "edge/gpu", 5.0, 10.0),
        FaultEvent(FaultKind.CLOUD_UNREACHABLE, "cloud", 2.0, 4.0),
    )
    injector = FaultInjector(sim, plan)

    assert not injector.processor_down(Tier.EDGE, "gpu")
    sim.run(until=3.0)
    assert injector.cloud_unreachable()
    assert not injector.processor_down(Tier.EDGE, "gpu")
    sim.run(until=7.0)
    assert not injector.cloud_unreachable()
    assert injector.processor_down(Tier.EDGE, "gpu")
    sim.run(until=20.0)
    assert not injector.processor_down(Tier.EDGE, "gpu")


def test_slowdown_and_link_quality_factors():
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_SLOW, "vehicle/cpu", 1.0, 5.0, severity=3.0),
        FaultEvent(FaultKind.LINK_DEGRADED, "edge-vehicle", 1.0, 5.0, severity=0.25),
    )
    injector = FaultInjector(sim, plan)
    assert injector.processor_slowdown(Tier.VEHICLE, "cpu") == 1.0
    sim.run(until=2.0)
    assert injector.processor_slowdown(Tier.VEHICLE, "cpu") == 3.0
    sim.run(until=10.0)
    assert injector.processor_slowdown(Tier.VEHICLE, "cpu") == 1.0


def test_link_degradation_applies_to_world_bandwidth():
    sim = Simulator()
    world = build_default_world()
    nominal = world.links.vehicle_edge.bandwidth_mbps
    plan = manual_plan(
        FaultEvent(FaultKind.LINK_DEGRADED, "edge-vehicle", 1.0, 5.0, severity=0.1),
    )
    FaultInjector(sim, plan, world=world)
    sim.run(until=2.0)
    assert world.links.vehicle_edge.bandwidth_mbps == nominal * 0.1
    sim.run(until=10.0)
    assert world.links.vehicle_edge.bandwidth_mbps == nominal


def test_watch_down_and_wait_up():
    sim = Simulator()
    key = link_key(Tier.VEHICLE, Tier.CLOUD)
    plan = manual_plan(
        FaultEvent(FaultKind.LINK_DOWN, "cloud-vehicle", 3.0, 4.0),
    )
    injector = FaultInjector(sim, plan)
    log = []

    def watcher(sim):
        yield injector.watch_down(key)
        log.append(("down", sim.now))
        yield injector.wait_up(key)
        log.append(("up", sim.now))
        # Already up: immediate.
        yield injector.wait_up(key)
        log.append(("still-up", sim.now))

    sim.process(watcher(sim))
    sim.run()
    assert log == [("down", 3.0), ("up", 7.0), ("still-up", 7.0)]


def test_injector_trace_is_reproducible():
    plan = FaultPlan.generate(
        seed=11,
        horizon_s=300.0,
        processors=["vehicle/cpu", "edge/gpu"],
        links=["edge-vehicle"],
    )
    traces = []
    for _ in range(2):
        sim = Simulator()
        injector = FaultInjector(sim, plan)
        sim.run()
        traces.append(list(injector.trace))
    assert traces[0] == traces[1]
    assert traces[0]  # non-empty: the plan realizes transitions


def test_world_fault_targets_cover_every_component():
    world = build_default_world()
    processors, links = world_fault_targets(world)
    assert any(p.startswith("vehicle/") for p in processors)
    assert any(p.startswith("edge/") for p in processors)
    assert any(p.startswith("cloud/") for p in processors)
    assert "-".join(sorted((Tier.VEHICLE, Tier.EDGE))) in links
    assert len(links) == 3


def test_cloud_key_constant():
    sim = Simulator()
    plan = manual_plan(FaultEvent(FaultKind.CLOUD_UNREACHABLE, "cloud", 0.5, 1.0))
    injector = FaultInjector(sim, plan)
    sim.run(until=1.0)
    assert injector.is_down(CLOUD_KEY)
