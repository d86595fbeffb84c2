"""Tests for the EdgeOS health watchdog."""

import pytest

from repro.edgeos import ElasticManager, HealthWatchdog
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.sim import Simulator
from repro.topology import Tier, build_default_world

from .test_elastic import a3_service


def test_validation():
    with pytest.raises(ValueError):
        HealthWatchdog(heartbeat_interval_s=0.0)
    with pytest.raises(ValueError):
        HealthWatchdog(miss_threshold=0)


def test_silence_marks_down_heartbeat_revives():
    dog = HealthWatchdog(heartbeat_interval_s=1.0, miss_threshold=3)
    dog.register("tier:edge", now_s=0.0)
    assert dog.sweep(2.0) == []  # within the allowance
    assert dog.sweep(3.5) == ["tier:edge"]
    assert not dog.healthy("tier:edge")
    assert not dog.tier_healthy(Tier.EDGE)

    dog.heartbeat("tier:edge", 5.0)
    assert dog.healthy("tier:edge")
    comp = dog.component("tier:edge")
    assert comp.flaps == 1
    assert comp.total_down_s == pytest.approx(1.5)
    assert [t[1] for t in dog.transitions] == ["down", "up"]


def test_unknown_components_count_healthy():
    dog = HealthWatchdog()
    assert dog.healthy("never-registered")
    assert dog.tier_healthy(Tier.CLOUD)


def test_drive_observes_fault_plan_through_missed_heartbeats():
    sim = Simulator()
    plan = FaultPlan(
        seed=0,
        horizon_s=60.0,
        events=(FaultEvent(FaultKind.PROCESSOR_DOWN, "edge/gpu", 10.0, 20.0),),
    )
    injector = FaultInjector(sim, plan)
    dog = HealthWatchdog(heartbeat_interval_s=1.0, miss_threshold=3)
    dog.drive(sim, injector, {"tier:edge": "proc:edge/gpu"}, horizon_s=60.0)
    sim.run()
    transitions = [(t, what) for t, what, _ in dog.transitions]
    # Down is detected a few missed beats after onset; up on first beat back.
    assert transitions[0][1] == "down"
    assert 10.0 < transitions[0][0] <= 15.0
    assert transitions[1][1] == "up"
    assert 30.0 <= transitions[1][0] <= 32.0
    assert dog.component("tier:edge").flaps == 1


class SweepFault(Exception):
    pass


def test_a_pulse_that_raises_ends_the_run(monkeypatch):
    sim = Simulator()
    injector = FaultInjector(sim, FaultPlan(seed=0, horizon_s=60.0))
    dog = HealthWatchdog(heartbeat_interval_s=1.0, miss_threshold=3)

    def failing_sweep(now_s):
        if now_s >= 3.0:
            raise SweepFault(now_s)
        return []

    monkeypatch.setattr(dog, "sweep", failing_sweep)
    dog.drive(sim, injector, {"tier:edge": "proc:edge/gpu"}, horizon_s=60.0)
    with pytest.raises(SweepFault):
        sim.run()
    assert sim.now < 4.0  # not the 60 s horizon


def test_elastic_failover_excludes_unhealthy_tier():
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=5.0)
    manager.register(service)
    dog = HealthWatchdog()
    dog.register("tier:edge", now_s=0.0)

    healthy_choice = manager.choose(service, world, health=dog)
    assert healthy_choice.pipeline in ("offload-all", "split")

    dog.sweep(100.0)  # edge went silent
    failover = manager.choose(service, world, health=dog)
    assert failover.pipeline == "onboard"
    assert failover.switched

    dog.heartbeat("tier:edge", 101.0)
    recovered = manager.choose(service, world, health=dog)
    assert recovered.pipeline in ("offload-all", "split")
