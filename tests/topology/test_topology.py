"""Unit tests for nodes, mobility, and world wiring."""

import numpy as np
import pytest

from repro.hw import WorkloadClass, catalog
from repro.topology import (
    Cloud,
    ConstantSpeed,
    SpeedProfile,
    Tier,
    Vehicle,
    World,
    XEdge,
    build_default_world,
    highway_profile,
    urban_profile,
)


def test_constant_speed_position():
    motion = ConstantSpeed(speed_mps=10.0, start_position_m=5.0)
    assert motion.position(3.0) == pytest.approx(35.0)
    assert motion.speed(100.0) == 10.0


def test_speed_profile_interpolates():
    profile = SpeedProfile([(0.0, 0.0), (10.0, 20.0)])
    assert profile.speed(5.0) == pytest.approx(10.0)
    # Trapezoid: distance at t=10 is 100 m.
    assert profile.position(10.0) == pytest.approx(100.0)


def test_speed_profile_holds_last_speed():
    profile = SpeedProfile([(0.0, 10.0)])
    assert profile.speed(100.0) == 10.0
    assert profile.position(10.0) == pytest.approx(100.0)


def test_speed_profile_validation():
    with pytest.raises(ValueError):
        SpeedProfile([])
    with pytest.raises(ValueError):
        SpeedProfile([(1.0, 5.0), (0.0, 5.0)])
    with pytest.raises(ValueError):
        SpeedProfile([(0.0, -1.0)])


def test_speed_profile_position_midsegment():
    profile = SpeedProfile([(0.0, 0.0), (10.0, 10.0)])
    # At t=5 speed is 5; distance = 0.5*(0+5)*5 = 12.5.
    assert profile.position(5.0) == pytest.approx(12.5)


def test_urban_profile_is_stop_and_go():
    profile = urban_profile(600.0, np.random.default_rng(0))
    speeds = [profile.speed(t) for t in range(0, 600, 5)]
    assert min(speeds) == 0.0
    assert max(speeds) > 5.0


def test_highway_profile_stays_near_cruise():
    profile = highway_profile(600.0, np.random.default_rng(0), cruise_mps=29.0)
    speeds = [profile.speed(t) for t in range(0, 600, 5)]
    assert all(24.0 <= s <= 34.0 for s in speeds)


def test_node_tier_validation():
    with pytest.raises(ValueError):
        from repro.topology.nodes import Node

        Node(name="x", tier="mars")


def test_vehicle_position_without_mobility_is_zero():
    assert Vehicle(name="v").position(10.0) == 0.0


def test_node_processors_are_fixed_when_built():
    listed = [catalog.intel_mncs()]
    vehicle = Vehicle(name="v", processors=listed)
    listed.append(catalog.jetson_tx2_maxp())
    assert vehicle.processors == (catalog.intel_mncs(),)
    assert Vehicle(name="bare").processors == ()


def test_best_processor_for_workload():
    vehicle = Vehicle(
        name="v", processors=[catalog.intel_i7_6700(), catalog.jetson_tx2_maxp()]
    )
    best = vehicle.best_processor_for(WorkloadClass.DNN)
    assert best.name == "Jetson TX2 Max-P"
    # Control tasks go to the CPU.
    assert vehicle.best_processor_for(WorkloadClass.CONTROL).name == "Intel i7-6700"


def test_xedge_coverage():
    edge = XEdge(name="e", position_m=1000.0, coverage_radius_m=100.0)
    assert edge.covers(950.0)
    assert not edge.covers(1101.0)


def test_default_world_structure():
    world = build_default_world()
    assert world.vehicle.tier == Tier.VEHICLE
    assert all(e.tier == Tier.EDGE for e in world.edges)
    assert isinstance(world.cloud, Cloud)
    assert world.links.between(Tier.VEHICLE, Tier.EDGE).name == "dsrc"
    assert world.links.between(Tier.VEHICLE, Tier.CLOUD).name == "lte"
    assert world.links.between(Tier.EDGE, Tier.CLOUD).name == "backhaul"


def test_world_serving_edge_follows_vehicle():
    world = build_default_world(speed_mps=10.0, edge_count=3, edge_spacing_m=100.0)
    first = world.serving_edge(0.0)
    later = world.serving_edge(20.0)  # vehicle at x=200
    assert first.name == "xedge-0"
    assert later.name == "xedge-2"


def test_world_node_for_tier():
    world = build_default_world()
    assert world.node_for_tier(Tier.VEHICLE) is world.vehicle
    assert world.node_for_tier(Tier.CLOUD) is world.cloud
    with pytest.raises(KeyError):
        world.node_for_tier("mars")


def test_world_without_edges_raises_on_lookup():
    world = build_default_world()
    world.edges = []
    with pytest.raises(LookupError):
        world.node_for_tier(Tier.EDGE)
