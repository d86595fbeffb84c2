"""Tests for fault plan generation, views, and serialization."""

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRates,
    service_key,
)
from repro.sim import Simulator


def small_plan(seed=7, horizon=600.0):
    return FaultPlan.generate(
        seed=seed,
        horizon_s=horizon,
        processors=["vehicle/cpu", "edge/gpu"],
        links=["edge-vehicle", "cloud-vehicle"],
        services=["adas"],
        collectors=["obd"],
    )


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.LINK_DOWN, "edge-vehicle", -1.0, 5.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.LINK_DOWN, "edge-vehicle", 1.0, 0.0)
    with pytest.raises(ValueError):
        FaultRates(mtbf_s=0.0, mttr_s=1.0)
    with pytest.raises(ValueError):
        FaultPlan.generate(seed=0, horizon_s=0.0)


def test_generation_is_bounded_and_sorted():
    plan = small_plan()
    assert len(plan) > 0
    starts = [e.start_s for e in plan.events]
    assert starts == sorted(starts)
    for event in plan.events:
        assert 0.0 <= event.start_s < plan.horizon_s
        assert event.end_s <= plan.horizon_s + 1e-9


def test_per_target_windows_do_not_self_overlap():
    plan = small_plan()
    by_key = {}
    for event in plan.events:
        by_key.setdefault((event.kind, event.target), []).append(event)
    for windows in by_key.values():
        for first, second in zip(windows, windows[1:]):
            assert first.end_s <= second.start_s


def test_target_independence():
    """Adding a new component never perturbs existing components' windows."""
    base = FaultPlan.generate(seed=3, horizon_s=600.0, processors=["edge/gpu"])
    grown = FaultPlan.generate(
        seed=3, horizon_s=600.0, processors=["edge/gpu", "vehicle/cpu"]
    )
    assert [e for e in base.events if e.target == "edge/gpu"] == [
        e for e in grown.events if e.target == "edge/gpu"
    ]


def test_views_and_activity_queries():
    plan = small_plan()
    crash = [e for e in plan.events if e.kind is FaultKind.SERVICE_CRASH]
    assert all(e.target == "adas" for e in crash)
    if crash:
        # Replayed on the sim clock, the window is live at its midpoint.
        probe = crash[0]
        sim = Simulator()
        injector = FaultInjector(sim, plan)
        sim.run(until=probe.start_s + probe.duration_s / 2)
        assert injector.is_down(service_key("adas"))


def test_json_round_trip():
    plan = small_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(plan.to_json()).trace() == plan.trace()


def test_severity_bounds_respected():
    plan = small_plan()
    for event in plan.events:
        if event.kind is FaultKind.PROCESSOR_SLOW:
            assert 2.0 <= event.severity <= 6.0
        elif event.kind is FaultKind.LINK_DEGRADED:
            assert 0.05 <= event.severity <= 0.5
