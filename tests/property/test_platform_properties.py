"""Property-based tests for the platform layer: offloading, firewall."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgeos import Direction, Firewall, Interface, PacketMeta, Rule
from repro.hw import WorkloadClass
from repro.offload import (
    Exhaustive,
    LayerProfile,
    Placement,
    Task,
    TaskGraph,
    best_split,
    evaluate_placement,
)
from repro.topology import Tier, build_default_world

WORLD = build_default_world()


# -- offloading ---------------------------------------------------------------

chain_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),   # gops
        st.floats(min_value=0.0, max_value=2e6, allow_nan=False),    # out bytes
    ),
    min_size=1,
    max_size=4,
)


def build_chain(spec, source_bytes):
    tasks = [
        Task(f"t{i}", gops, WorkloadClass.DNN, output_bytes=out,
             source_bytes=source_bytes if i == 0 else 0.0)
        for i, (gops, out) in enumerate(spec)
    ]
    return TaskGraph.chain("chain", tasks)


@given(spec=chain_strategy,
       source=st.floats(min_value=0.0, max_value=5e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_exhaustive_is_never_beaten_by_any_placement(spec, source):
    graph = build_chain(spec, source)
    best = Exhaustive().decide(graph, WORLD).evaluation.latency_s
    # Spot-check the three uniform placements against the optimum.
    for tier in Tier.ALL:
        evaluation = evaluate_placement(graph, Placement.uniform(graph, tier), WORLD)
        if evaluation.feasible:
            assert best <= evaluation.latency_s + 1e-9


@given(spec=chain_strategy,
       source=st.floats(min_value=0.0, max_value=5e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_placement_costs_are_nonnegative_and_consistent(spec, source):
    graph = build_chain(spec, source)
    for tier in Tier.ALL:
        evaluation = evaluate_placement(graph, Placement.uniform(graph, tier), WORLD)
        assert evaluation.latency_s >= 0.0
        assert evaluation.uplink_bytes >= 0.0
        assert evaluation.vehicle_energy_j >= 0.0
        if tier == Tier.VEHICLE:
            assert evaluation.uplink_bytes == 0.0
        else:
            assert evaluation.vehicle_energy_j == 0.0


@given(layers=st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
              st.floats(min_value=100.0, max_value=2e6, allow_nan=False)),
    min_size=1, max_size=6),
    input_bytes=st.floats(min_value=1e3, max_value=5e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_best_split_equals_brute_force_minimum(layers, input_bytes):
    """best_split returns the global optimum over all n+1 cut points."""
    profiles = [LayerProfile(f"l{i}", g, b) for i, (g, b) in enumerate(layers)]
    decision = best_split(profiles, WORLD, input_bytes)
    # Brute force: the decision's latency must equal the minimum over cuts,
    # which we recompute by re-running best_split on each forced prefix...
    # simpler: ensure latency <= both envelopes and every single-cut cost.
    from repro.offload.layersplit import SplitDecision, _compute_time
    from repro.hw import WorkloadClass as WC

    vehicle = WORLD.vehicle.best_processor_for(WC.DNN)
    remote = WORLD.edges[0].best_processor_for(WC.DNN)
    link = WORLD.links.between(Tier.VEHICLE, Tier.EDGE)
    result_bytes = profiles[-1].output_bytes
    for cut in range(len(profiles) + 1):
        local = _compute_time(vehicle, sum(p.gflop for p in profiles[:cut]), WC.DNN)
        if cut == len(profiles):
            candidate = local
        else:
            uplink = input_bytes if cut == 0 else profiles[cut - 1].output_bytes
            remote_s = _compute_time(remote, sum(p.gflop for p in profiles[cut:]), WC.DNN)
            candidate = (local + link.transfer_time(uplink)
                         + link.transfer_time(result_bytes) + remote_s)
        assert decision.latency_s <= candidate + 1e-9


# -- firewall ---------------------------------------------------------------------

packet_strategy = st.builds(
    PacketMeta,
    interface=st.sampled_from(Interface.ALL),
    direction=st.sampled_from(Direction.ALL),
    peer=st.sampled_from(["cav-1", "cloud.openvdap.org", "attacker", "paired:x"]),
    service=st.sampled_from(
        ["safety-beacon", "obd-diagnostics", "model-update", "weather"]
    ),
)


@given(packets=st.lists(packet_strategy, min_size=1, max_size=30))
@settings(max_examples=100)
def test_firewall_decisions_match_first_match_semantics(packets):
    """The engine's verdicts equal a reference first-match interpreter."""
    rules = Firewall.vehicle_default().rules
    firewall = Firewall(rules=list(rules))
    established = set()
    for packet in packets:
        verdict = firewall.permits(packet)
        expected = None
        for rule in rules:
            if rule.matches(packet):
                expected = rule.action == "allow"
                break
        key = (packet.interface, packet.peer, packet.service)
        if expected is None:
            if packet.direction == Direction.OUT:
                expected = True
                established.add(key)
            else:
                expected = key in established
        elif expected and packet.direction == Direction.OUT:
            established.add(key)
        assert verdict == expected


@given(spec=chain_strategy,
       source=st.floats(min_value=0.0, max_value=5e6, allow_nan=False),
       tier_choice=st.lists(st.sampled_from(Tier.ALL), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_executed_latency_equals_analytic_for_any_chain_placement(
    spec, source, tier_choice
):
    """For a single uncontended job, the distributed executor's simulated
    latency equals the analytic evaluation for every placement of every
    chain -- the cross-validation invariant of the two models."""
    from repro.offload import DistributedExecutor
    from repro.sim import Simulator

    graph = build_chain(spec, source)
    assignment = {
        name: tier_choice[i % len(tier_choice)]
        for i, name in enumerate(graph.task_names)
    }
    placement = Placement(assignment)
    world = build_default_world()
    analytic = evaluate_placement(graph, placement, world)
    sim = Simulator()
    executor = DistributedExecutor(sim, world)
    proc = executor.submit(graph, placement)
    sim.run()
    assert proc.value.latency_s == pytest.approx(analytic.latency_s, rel=1e-9)
