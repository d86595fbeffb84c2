"""Tests for polymorphic services and Elastic Management."""

import pytest

from repro.edgeos import ElasticManager, Pipeline, PolymorphicService, ServiceState
from repro.hw import WorkloadClass
from repro.offload import Task, TaskGraph
from repro.topology import Tier, build_default_world
from repro.vcu import QoSClass


def a3_graph():
    """The kidnapper-search service: motion detect -> plate recognize."""
    return TaskGraph.chain(
        "a3",
        [
            Task("motion", 0.05, WorkloadClass.VISION, output_bytes=150_000,
                 source_bytes=1_500_000),
            Task("recognize", 8.0, WorkloadClass.DNN, output_bytes=200),
        ],
    )


def a3_service(deadline=2.0):
    return PolymorphicService(
        name="kidnapper-search",
        qos=QoSClass.LATENCY_SENSITIVE,
        deadline_s=deadline,
        graph_factory=a3_graph,
        pipelines=[
            Pipeline("onboard", {"motion": Tier.VEHICLE, "recognize": Tier.VEHICLE}),
            Pipeline("offload-all", {"motion": Tier.EDGE, "recognize": Tier.EDGE}),
            Pipeline("split", {"motion": Tier.VEHICLE, "recognize": Tier.EDGE}),
        ],
    )


def test_service_validation():
    with pytest.raises(ValueError):
        PolymorphicService("x", qos=99, deadline_s=1.0, graph_factory=a3_graph,
                           pipelines=[Pipeline("p", {})])
    with pytest.raises(ValueError):
        PolymorphicService("x", qos=QoSClass.INTERACTIVE, deadline_s=1.0,
                           graph_factory=a3_graph, pipelines=[])
    with pytest.raises(ValueError):
        PolymorphicService(
            "x", qos=QoSClass.INTERACTIVE, deadline_s=1.0, graph_factory=a3_graph,
            pipelines=[Pipeline("p", {}), Pipeline("p", {})],
        )


def test_service_pipeline_lookup():
    service = a3_service()
    assert service.pipeline("split").assignment["recognize"] == Tier.EDGE
    with pytest.raises(KeyError):
        service.pipeline("nope")


def test_manager_register_duplicates():
    manager = ElasticManager()
    manager.register(a3_service())
    with pytest.raises(ValueError):
        manager.register(a3_service())


def test_manager_goal_validation():
    with pytest.raises(ValueError):
        ElasticManager(goal="vibes")


def test_choose_picks_deadline_meeting_pipeline():
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=5.0)
    manager.register(service)
    choice = manager.choose(service, world)
    assert not choice.hung
    assert service.state is ServiceState.RUNNING
    assert choice.evaluation.latency_s <= 5.0


def test_hang_up_when_no_pipeline_meets_deadline():
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=1e-6)
    manager.register(service)
    choice = manager.choose(service, world)
    assert choice.hung
    assert service.state is ServiceState.HUNG
    assert service.active_pipeline is None
    assert service.hang_count == 1


def test_degraded_network_switches_pipeline_onboard():
    """The paper's narrative: good network -> offload; bad network -> the
    pipeline moves (partly) on board."""
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=4.0)
    manager.register(service)

    first = manager.choose(service, world)
    assert first.pipeline in ("offload-all", "split")

    # Network collapses: DSRC drops to dial-up quality.
    world.links.vehicle_edge.bandwidth_mbps = 0.05
    world.links.vehicle_cloud.bandwidth_mbps = 0.05
    second = manager.choose(service, world)
    assert second.pipeline == "onboard"
    assert second.switched


def test_service_resumes_when_network_recovers():
    from repro.hw import catalog

    # A weak vehicle: the deadline is only attainable with edge help.
    world = build_default_world(vehicle_processors=[catalog.onboard_controller()])
    manager = ElasticManager()
    service = a3_service(deadline=0.7)
    manager.register(service)
    assert not manager.choose(service, world).hung

    world.links.vehicle_edge.bandwidth_mbps = 0.01
    world.links.vehicle_cloud.bandwidth_mbps = 0.01
    assert manager.choose(service, world).hung

    world.links.vehicle_edge.bandwidth_mbps = 27.0
    world.links.vehicle_cloud.bandwidth_mbps = 10.0
    resumed = manager.choose(service, world)
    assert not resumed.hung
    assert service.state is ServiceState.RUNNING
    assert resumed.switched  # resume counts as a switch


def test_energy_goal_prefers_offloading():
    world = build_default_world()
    latency_mgr = ElasticManager(goal="latency")
    energy_mgr = ElasticManager(goal="energy")
    service = a3_service(deadline=10.0)  # generous: all pipelines qualify
    energy_choice = energy_mgr.choose(service, world)
    # Offloading burns zero vehicle joules.
    assert energy_choice.evaluation.vehicle_energy_j == 0.0
    assert energy_choice.pipeline == "offload-all"
    latency_choice = latency_mgr.choose(service, world)
    assert latency_choice.evaluation.latency_s <= energy_choice.evaluation.latency_s


def test_retune_covers_all_services():
    world = build_default_world()
    manager = ElasticManager()
    manager.register(a3_service())
    other = PolymorphicService(
        name="diagnostics",
        qos=QoSClass.BACKGROUND,
        deadline_s=30.0,
        graph_factory=lambda: TaskGraph.chain(
            "diag", [Task("analyze", 0.5, WorkloadClass.CONTROL, output_bytes=1_000)]
        ),
        pipelines=[Pipeline("onboard", {"analyze": Tier.VEHICLE})],
    )
    manager.register(other)
    choices = manager.retune(world)
    assert {c.service for c in choices} == {"kidnapper-search", "diagnostics"}
