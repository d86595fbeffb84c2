"""Integration: the distributed executor vs the analytic placement model."""

import pytest

from repro.hw import WorkloadClass
from repro.offload import (
    DynamicVDAP,
    Placement,
    Task,
    TaskGraph,
    evaluate_placement,
)
from repro.offload.executor import DistributedExecutor, TaskFailure
from repro.sim import Simulator
from repro.topology import Tier, build_default_world


def plate_graph(name="plate"):
    return TaskGraph.chain(
        name,
        [
            Task("motion", 0.05, WorkloadClass.VISION, output_bytes=200_000,
                 source_bytes=1_000_000),
            Task("detect", 5.0, WorkloadClass.DNN, output_bytes=20_000),
            Task("recognize", 2.0, WorkloadClass.DNN, output_bytes=100),
        ],
    )


def run_once(placement_dict, graph=None):
    world = build_default_world()
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    graph = graph or plate_graph()
    placement = Placement(placement_dict)
    proc = executor.submit(graph, placement)
    sim.run()
    analytic = evaluate_placement(graph, placement, world)
    return proc.value, analytic


@pytest.mark.parametrize("tiers", [
    {"motion": Tier.VEHICLE, "detect": Tier.VEHICLE, "recognize": Tier.VEHICLE},
    {"motion": Tier.EDGE, "detect": Tier.EDGE, "recognize": Tier.EDGE},
    {"motion": Tier.CLOUD, "detect": Tier.CLOUD, "recognize": Tier.CLOUD},
    {"motion": Tier.VEHICLE, "detect": Tier.EDGE, "recognize": Tier.EDGE},
    {"motion": Tier.VEHICLE, "detect": Tier.EDGE, "recognize": Tier.CLOUD},
])
def test_uncontended_execution_matches_analytic_model(tiers):
    """Single job, idle system: simulation == closed-form, every placement."""
    result, analytic = run_once(tiers)
    assert result.latency_s == pytest.approx(analytic.latency_s, rel=1e-9)


def test_fanout_graph_matches_analytic_model():
    graph = TaskGraph("fan")
    graph.add_task(Task("src", 0.01, WorkloadClass.VISION, output_bytes=50_000,
                        source_bytes=400_000))
    graph.add_task(Task("a", 3.0, WorkloadClass.DNN, output_bytes=1_000))
    graph.add_task(Task("b", 8.0, WorkloadClass.DNN, output_bytes=1_000))
    graph.add_edge("src", "a")
    graph.add_edge("src", "b")
    placement = {"src": Tier.VEHICLE, "a": Tier.EDGE, "b": Tier.EDGE}
    result, analytic = run_once(placement, graph=graph)
    # The edge GPU serializes a and b; the analytic model assumes they run
    # in parallel -- so simulation must be >= analytic, and equal only when
    # serialization is off the critical path.
    assert result.latency_s >= analytic.latency_s - 1e-9


def test_contention_pushes_latency_above_analytic_prediction():
    """Ten simultaneous jobs on the edge GPU: the analytic single-job
    number is optimistic, the simulated tail shows queueing."""
    world = build_default_world()
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    placement_dict = {
        "motion": Tier.VEHICLE, "detect": Tier.EDGE, "recognize": Tier.EDGE,
    }
    graphs = [plate_graph(f"job-{i}") for i in range(10)]
    procs = [
        executor.submit(g, Placement(dict(placement_dict))) for g in graphs
    ]
    sim.run()
    analytic = evaluate_placement(
        plate_graph(), Placement(placement_dict), build_default_world()
    )
    latencies = sorted(p.value.latency_s for p in procs)
    assert latencies[0] >= analytic.latency_s - 1e-9
    assert latencies[-1] > 2 * analytic.latency_s  # the queue is real


def test_executor_reports_transfer_time_component():
    result, analytic = run_once(
        {"motion": Tier.VEHICLE, "detect": Tier.EDGE, "recognize": Tier.EDGE}
    )
    assert result.transfer_seconds > 0
    assert result.transfer_seconds < result.latency_s


def test_executor_infeasible_tier_fails_job():
    world = build_default_world(vehicle_processors=[])
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    graph = plate_graph()
    proc = executor.submit(graph, Placement.uniform(graph, Tier.VEHICLE))
    sim.run()
    assert proc.triggered
    with pytest.raises(TaskFailure, match="vehicle has no processor"):
        _ = proc.value


def test_executor_agrees_with_dynamic_vdap_choice():
    """The strategy's chosen placement, executed, meets the deadline it was
    chosen for (uncontended)."""
    world = build_default_world()
    graph = plate_graph()
    decision = DynamicVDAP().decide(graph, world, deadline_s=2.0)
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    proc = executor.submit(plate_graph(), decision.placement)
    sim.run()
    assert proc.value.latency_s <= 2.0