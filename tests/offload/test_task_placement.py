"""Tests for task graphs and placement evaluation."""

import pytest

from repro.hw import WorkloadClass
from repro.offload import Placement, Task, TaskGraph, evaluate_placement
from repro.topology import Tier, build_default_world


def simple_chain():
    """motion-detect -> plate-detect -> plate-recognize (the paper's A3 split)."""
    return TaskGraph.chain(
        "plate",
        [
            Task("motion", 0.05, WorkloadClass.VISION, output_bytes=200_000,
                 source_bytes=1_000_000),
            Task("detect", 2.0, WorkloadClass.DNN, output_bytes=20_000),
            Task("recognize", 1.0, WorkloadClass.DNN, output_bytes=100),
        ],
    )


def test_task_validation():
    with pytest.raises(ValueError):
        Task("bad", -1.0, WorkloadClass.DNN)


def test_duplicate_task_rejected():
    graph = TaskGraph("g")
    graph.add_task(Task("a", 1.0, WorkloadClass.DNN))
    with pytest.raises(ValueError):
        graph.add_task(Task("a", 1.0, WorkloadClass.DNN))


def test_edge_to_unknown_task_rejected():
    graph = TaskGraph("g")
    graph.add_task(Task("a", 1.0, WorkloadClass.DNN))
    with pytest.raises(KeyError):
        graph.add_edge("a", "missing")


def test_cycle_rejected():
    graph = TaskGraph("g")
    graph.add_task(Task("a", 1.0, WorkloadClass.DNN))
    graph.add_task(Task("b", 1.0, WorkloadClass.DNN))
    graph.add_edge("a", "b")
    with pytest.raises(ValueError):
        graph.add_edge("b", "a")


def test_chain_structure():
    graph = simple_chain()
    assert len(graph) == 3
    assert graph.roots == ["motion"]
    assert graph.sinks == ["recognize"]
    assert graph.task_names == ["motion", "detect", "recognize"]


def test_topological_order_respects_dependencies():
    graph = TaskGraph("diamond")
    for name in "abcd":
        graph.add_task(Task(name, 1.0, WorkloadClass.DNN))
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "d")
    graph.add_edge("c", "d")
    order = graph.task_names
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")


def test_placement_uniform_and_validation():
    graph = simple_chain()
    placement = Placement.uniform(graph, Tier.CLOUD)
    placement.validate(graph)
    with pytest.raises(ValueError):
        Placement({"motion": Tier.CLOUD}).validate(graph)
    with pytest.raises(ValueError):
        Placement({n: "mars" for n in graph.task_names}).validate(graph)


def test_local_placement_has_no_uplink():
    graph = simple_chain()
    world = build_default_world()
    evaluation = evaluate_placement(graph, Placement.uniform(graph, Tier.VEHICLE), world)
    assert evaluation.feasible
    assert evaluation.uplink_bytes == 0.0
    assert evaluation.vehicle_energy_j > 0.0


def test_cloud_placement_uploads_source_bytes():
    graph = simple_chain()
    world = build_default_world()
    evaluation = evaluate_placement(graph, Placement.uniform(graph, Tier.CLOUD), world)
    assert evaluation.uplink_bytes == pytest.approx(1_000_000)
    assert evaluation.vehicle_energy_j == 0.0


def test_split_placement_uplinks_intermediate_output():
    graph = simple_chain()
    world = build_default_world()
    placement = Placement(
        {"motion": Tier.VEHICLE, "detect": Tier.EDGE, "recognize": Tier.EDGE}
    )
    evaluation = evaluate_placement(graph, placement, world)
    # Only motion's 200 KB output crosses the vehicle boundary.
    assert evaluation.uplink_bytes == pytest.approx(200_000)


def test_latency_includes_transfer_and_return():
    graph = TaskGraph("single")
    graph.add_task(
        Task("t", 1.0, WorkloadClass.DNN, output_bytes=1_000_000, source_bytes=2_000_000)
    )
    world = build_default_world()
    local = evaluate_placement(graph, Placement({"t": Tier.VEHICLE}), world)
    cloud = evaluate_placement(graph, Placement({"t": Tier.CLOUD}), world)
    link = world.links.between(Tier.VEHICLE, Tier.CLOUD)
    expected_transfers = link.transfer_time(2_000_000) + link.transfer_time(1_000_000)
    # Cloud compute is faster, but the transfers dominate.
    assert cloud.latency_s > expected_transfers
    assert local.latency_s < cloud.latency_s


def test_critical_path_uses_slowest_branch():
    graph = TaskGraph("fork")
    graph.add_task(Task("src", 0.0, WorkloadClass.CONTROL, output_bytes=0.0))
    graph.add_task(Task("fast", 0.1, WorkloadClass.DNN))
    graph.add_task(Task("slow", 10.0, WorkloadClass.DNN))
    graph.add_edge("src", "fast")
    graph.add_edge("src", "slow")
    world = build_default_world()
    evaluation = evaluate_placement(graph, Placement.uniform(graph, Tier.VEHICLE), world)
    slow_proc = world.vehicle.best_processor_for(WorkloadClass.DNN)
    assert evaluation.latency_s >= slow_proc.execution_time(10.0, WorkloadClass.DNN)


def test_infeasible_when_tier_lacks_processor():
    world = build_default_world(vehicle_processors=[])
    graph = simple_chain()
    evaluation = evaluate_placement(graph, Placement.uniform(graph, Tier.VEHICLE), world)
    assert not evaluation.feasible
    assert "no processor" in evaluation.infeasible_reason
