"""Integration: the distributed executor surviving injected faults."""

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.hw import WorkloadClass, catalog
from repro.offload import DistributedExecutor, Placement, Task, TaskGraph
from repro.sim import Simulator
from repro.topology import Tier, build_default_world


def simple_graph(name="job", work=5.0):
    return TaskGraph.chain(
        name,
        [
            Task("detect", work, WorkloadClass.DNN, output_bytes=1_000,
                 source_bytes=100_000),
        ],
    )


def edge_placement(graph):
    return Placement.uniform(graph, Tier.EDGE)


def manual_plan(*events, horizon=1_000.0):
    return FaultPlan(seed=0, horizon_s=horizon, events=tuple(events))


def edge_gpu_name():
    return catalog.edge_server_gpu().name


def test_no_faults_no_retry_behaves_exactly_as_before():
    world = build_default_world()
    graph = simple_graph()
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    baseline = proc.value.latency_s

    sim2 = Simulator()
    injector = FaultInjector(sim2, manual_plan())  # empty plan
    executor2 = DistributedExecutor(sim2, world, faults=injector,
                                    retry=RetryPolicy())
    proc2 = executor2.submit(graph, edge_placement(graph))
    sim2.run()
    assert proc2.value.latency_s == pytest.approx(baseline, rel=1e-9)
    assert proc2.value.retries == 0
    assert not proc2.value.failed


def test_fail_fast_processor_death_kills_the_job():
    world = build_default_world()
    graph = simple_graph(work=50_000.0)  # long enough to be mid-flight
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_DOWN, f"edge/{edge_gpu_name()}", 0.5, 5.0),
    )
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(sim, world, faults=injector, retry=None)
    proc = executor.submit(graph, edge_placement(graph), deadline_s=10.0)
    sim.run()
    result = proc.value  # fault-aware executor records, not raises
    assert result.failed
    assert "died mid-task" in result.failure_reason
    assert result.missed_deadline


def test_retry_resumes_after_processor_recovers():
    world = build_default_world()
    graph = simple_graph(work=50_000.0)
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_DOWN, f"edge/{edge_gpu_name()}", 0.5, 2.0),
    )
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(
        sim, world, faults=injector,
        retry=RetryPolicy(max_attempts=5, same_tier_attempts=5,
                          base_delay_s=3.0, max_delay_s=3.0),
    )
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    result = proc.value
    assert not result.failed
    assert result.retries >= 1
    assert result.replacements == 0  # stayed on the edge


def test_failover_to_surviving_tier_when_home_tier_stays_dead():
    world = build_default_world()
    graph = simple_graph(work=100.0)
    sim = Simulator()
    # The edge GPU dies almost immediately and stays dead a long time.
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_DOWN, f"edge/{edge_gpu_name()}", 0.1, 900.0),
    )
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(
        sim, world, faults=injector,
        retry=RetryPolicy(max_attempts=4, same_tier_attempts=1, base_delay_s=0.05),
    )
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    result = proc.value
    assert not result.failed
    assert result.replacements >= 1  # work moved off the dead edge


def test_link_outage_parks_transfer_until_recovery():
    world = build_default_world()
    graph = simple_graph(work=1.0)
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.LINK_DOWN, "edge-vehicle", 0.0, 5.0),
    )
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(sim, world, faults=injector,
                                   retry=RetryPolicy())
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    result = proc.value
    assert not result.failed
    assert result.finished_at > 5.0  # could not even start before recovery


def test_link_outage_without_retry_fails_the_job():
    world = build_default_world()
    graph = simple_graph(work=1.0)
    sim = Simulator()
    plan = manual_plan(
        FaultEvent(FaultKind.LINK_DOWN, "edge-vehicle", 0.0, 5.0),
    )
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(sim, world, faults=injector, retry=None)
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    assert proc.value.failed
    assert "down" in proc.value.failure_reason


def test_slowdown_window_stretches_execution():
    world = build_default_world()
    graph = simple_graph(work=5_000.0)
    plan = manual_plan(
        FaultEvent(FaultKind.PROCESSOR_SLOW, f"edge/{edge_gpu_name()}", 0.0,
                   900.0, severity=4.0),
    )

    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    proc = executor.submit(graph, edge_placement(graph))
    sim.run()
    healthy = proc.value.latency_s

    sim2 = Simulator()
    injector = FaultInjector(sim2, plan, world=world)
    executor2 = DistributedExecutor(sim2, world, faults=injector,
                                    retry=RetryPolicy())
    proc2 = executor2.submit(graph, edge_placement(graph))
    sim2.run()
    assert proc2.value.latency_s > healthy * 2  # ~4x compute, same transfers


def test_deadline_accounting():
    world = build_default_world()
    graph = simple_graph(work=5_000.0)
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    proc = executor.submit(graph, edge_placement(graph), deadline_s=1e-6)
    sim.run()
    assert proc.value.missed_deadline and not proc.value.failed

    sim2 = Simulator()
    executor2 = DistributedExecutor(sim2, world)
    proc2 = executor2.submit(graph, edge_placement(graph), deadline_s=1e6)
    sim2.run()
    assert not proc2.value.missed_deadline

    # At the boundary: the deadline is read in the same seconds as the
    # measured latency, so a budget 0.1% over it is met and 0.1% under
    # it is missed (a seconds-vs-milliseconds slip fails the first).
    def run_with(deadline_s):
        sim3 = Simulator()
        proc3 = DistributedExecutor(sim3, world).submit(
            graph, edge_placement(graph), deadline_s=deadline_s
        )
        sim3.run()
        return proc3.value

    latency_s = run_with(None).latency_s
    assert latency_s > 0
    above = run_with(latency_s * 1.001)
    below = run_with(latency_s * 0.999)
    assert above.latency_s == below.latency_s == latency_s
    assert not above.missed_deadline
    assert below.missed_deadline and not below.failed
