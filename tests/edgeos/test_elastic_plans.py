"""Compiled placement plans: shared by value across service copies and
across the vehicles of one simulator, compiled anew only for a node
whose processor set no plan has seen."""

import pytest

import repro.edgeos.elastic as elastic
from repro.apps import make_adas_service
from repro.edgeos import ElasticManager
from repro.fleet import FleetConfig, run_inline
from repro.hw import catalog
from repro.scenario import DriveScenario
from repro.sim import Simulator
from repro.topology import Cloud, Vehicle, XEdge, build_default_world
from repro.workloads.services import adas_frame_graph

from .test_elastic import a3_service


@pytest.fixture
def compiles(monkeypatch):
    """The pipelines compiled so far, one entry per ``CompiledPlacement``
    the elastic manager builds."""
    seen = []
    real = elastic.CompiledPlacement

    def counting(graph, placement, world):
        seen.append(dict(placement.assignment))
        return real(graph, placement, world)

    monkeypatch.setattr(elastic, "CompiledPlacement", counting)
    return seen


def test_service_copies_share_one_plan_per_pipeline(compiles):
    world = build_default_world()
    manager = ElasticManager()
    for copy in range(7):
        service = make_adas_service(deadline_s=0.6)
        service.name = f"{service.name}#{copy}"
        manager.register(service)
    manager.retune(world)
    assert len(compiles) == 3


def test_a_skewed_fleet_compiles_one_plan_set_per_partition(compiles):
    config = FleetConfig(
        seed=1, vehicles=128, partitions=1, duration_s=10.0, workload="skewed"
    )
    result = run_inline(config)
    # 320 service copies on 128 vehicles whose worlds hold equal processor
    # sets: the partition compiles the three ADAS pipelines once between
    # them, and nothing recompiles during the drive.
    copies = sum(config.service_count(v) for v in range(config.vehicles))
    assert copies == 320
    assert len(compiles) == 3
    assert len(result.vehicle_hashes) == config.vehicles


def test_each_partition_compiles_its_own_plans(compiles):
    config = FleetConfig(
        seed=1, vehicles=8, partitions=4, duration_s=5.0, workload="skewed"
    )
    run_inline(config)
    # The plan table lives on a partition's simulator, not in the module.
    assert len(compiles) == 3 * config.partitions


def test_vehicles_on_one_simulator_build_each_task_graph_once():
    builds = []

    def factory():
        builds.append(1)
        return adas_frame_graph()

    sim = Simulator()
    for vehicle in range(3):
        scenario = DriveScenario(seed=vehicle, sim=sim, label=f"v{vehicle}")
        for copy in range(2):
            service = make_adas_service(deadline_s=0.6)
            service.name = f"{service.name}#{copy}"
            service.graph_factory = factory
            scenario.add_service(service)
        scenario.launch(5.0)
    sim.run()
    # One build serves the compile path and every on-board share.
    assert len(builds) == 1


def test_a_processor_change_recompiles_only_the_plans_that_used_the_node(compiles):
    manager = ElasticManager()
    service = a3_service(deadline=4.0)
    manager.register(service)
    manager.choose(service, build_default_world())
    assert len(compiles) == 3

    def recompiled_with(**nodes):
        """Plans compiled for a fresh world with ``nodes`` swapped in: a
        node's processors are fixed, so a change is another node."""
        world = build_default_world()
        for attribute, node in nodes.items():
            setattr(world, attribute, node)
        compiles.clear()
        manager.choose(service, world)
        return sorted(tuple(sorted(set(a.values()))) for a in compiles)

    # An equal world reuses every plan.
    assert recompiled_with() == []
    # No a3 pipeline places work in the cloud.
    gpus = [catalog.cloud_server_gpu(), catalog.cloud_server_gpu()]
    assert recompiled_with(cloud=Cloud(processors=gpus)) == []
    # "offload-all" and "split" resolved the edge; "onboard" did not.
    edge = XEdge("xedge-0", processors=[catalog.edge_server_gpu()] * 2)
    assert recompiled_with(edges=[edge]) == [("edge",), ("edge", "vehicle")]
    # "onboard" and "split" resolved the vehicle.
    vehicle = Vehicle("cav-0", processors=[catalog.intel_i7_6700()])
    assert recompiled_with(vehicle=vehicle) == [("edge", "vehicle"), ("vehicle",)]
