"""A1 -- Offloading architectures: in-vehicle vs cloud vs edge (paper SIII).

The paper's central argument: in-vehicle-only burns watts and saturates
on-board silicon; cloud-only dies on the WAN; the edge-based strategy
meets deadlines with bounded bandwidth.  This ablation runs the standard
service mix through every strategy and reports latency / uplink / vehicle
energy, plus deadline hit rates.
"""

import pytest

from conftest import persist_report
from repro.hw import catalog
from repro.obs import Report
from repro.offload import CloudOnly, DynamicVDAP, EdgeOnly, Greedy, LocalOnly
from repro.topology import build_default_world
from repro.workloads import STANDARD_MIX

STRATEGIES = (LocalOnly(), CloudOnly(), EdgeOnly(), Greedy(), DynamicVDAP())


def build_world():
    # A mid-range vehicle so the on-board/edge tension is visible.
    return build_default_world(
        vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()]
    )


def run_mix(world):
    table = {}
    for strategy in STRATEGIES:
        total_latency = 0.0
        total_uplink = 0.0
        total_energy = 0.0
        met = 0
        for factory, deadline in STANDARD_MIX:
            decision = strategy.decide(factory(), world, deadline_s=deadline)
            total_latency += decision.evaluation.latency_s
            total_uplink += decision.evaluation.uplink_bytes
            total_energy += decision.evaluation.vehicle_energy_j
            met += decision.meets_deadline
        table[strategy.name] = (total_latency, total_uplink, total_energy, met)
    return table


def test_offloading_architectures(benchmark):
    world = build_world()
    table = benchmark(run_mix, world)

    report = Report(
        "ablate_offloading",
        "A1 -- offloading architecture comparison (standard 4-service mix)",
    )
    report.add_column("strategy", 14)
    report.add_column("latency_s", 14, ".3f", header="sum latency s")
    report.add_column("uplink_kb", 11, ".0f", header="uplink KB")
    report.add_column("energy_j", 15, ".1f", header="veh. energy J")
    report.add_column("deadlines", 11, align="right")
    for name, (latency, uplink, energy, met) in table.items():
        report.add_row(
            strategy=name, latency_s=latency, uplink_kb=uplink / 1e3,
            energy_j=energy, deadlines=f"{met}/{len(STANDARD_MIX)}",
        )
    persist_report(report)

    local = table["local-only"]
    cloud = table["cloud-only"]
    vdap = table["dynamic-vdap"]
    # The paper's qualitative claims:
    assert vdap[3] == len(STANDARD_MIX), "the dynamic strategy meets every deadline"
    assert (local[3], cloud[3]) == (3, 3), "each single-tier strategy misses one deadline"
    assert vdap[0] < cloud[0], "edge beats the WAN on latency"
    assert vdap[2] < local[2], "offloading spares vehicle energy"
    assert local[1] == 0.0, "local-only uses no uplink"
    assert vdap[1] <= cloud[1], "deadline-aware placement never ships more than cloud-only"
    # The numbers EXPERIMENTS.md states, to the precision it states them.
    assert round(local[2]) == 36 and round(cloud[0], 1) == 3.5
    assert (round(vdap[1] / 1e3), round(vdap[2], 1)) == (400, 9.6)
