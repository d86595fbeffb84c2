"""A2 -- Elastic Management adaptivity (paper SIV-C).

A 10-minute drive with DSRC quality cycling good/degraded/dead.  We
compare three policies for the ADAS polymorphic service:

* pinned-onboard / pinned-edge -- static pipelines;
* elastic -- the ElasticManager re-tuning every second.

Reported: mean achieved latency over the drive, deadline violations, and
pipeline switches.  The elastic policy should dominate both static pins.
"""

import numpy as np
import pytest

from conftest import persist_report
from repro.apps import make_adas_service
from repro.obs import Report
from repro.edgeos import ElasticManager
from repro.hw import catalog
from repro.offload.placement import evaluate_placement
from repro.topology import build_default_world

DEADLINE_S = 0.5
DRIVE_SECONDS = 600


def bandwidth_cycle(t: int) -> float:
    phase = (t // 30) % 3
    return (27.0, 2.0, 0.02)[phase]


def run_drive():
    world = build_default_world(
        vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()]
    )
    manager = ElasticManager()
    service = make_adas_service(deadline_s=DEADLINE_S)
    manager.register(service)
    graph = service.graph_factory()

    stats = {}
    # Static pins.
    for pipeline in service.pipelines:
        latencies, violations = [], 0
        for t in range(DRIVE_SECONDS):
            world.links.vehicle_edge.bandwidth_mbps = bandwidth_cycle(t)
            ev = evaluate_placement(graph, pipeline.placement(), world)
            latencies.append(ev.latency_s)
            violations += ev.latency_s > DEADLINE_S
        stats[f"pinned:{pipeline.name}"] = (
            float(np.mean(latencies)), violations, 0
        )

    # Elastic.
    latencies, violations = [], 0
    for t in range(DRIVE_SECONDS):
        world.links.vehicle_edge.bandwidth_mbps = bandwidth_cycle(t)
        choice = manager.choose(service, world)
        if choice.hung:
            violations += 1  # nothing can serve the frame this second
        else:
            latencies.append(choice.evaluation.latency_s)
            violations += choice.evaluation.latency_s > DEADLINE_S
    stats["elastic"] = (float(np.mean(latencies)), violations, manager.switches)
    return stats


def test_elastic_adaptivity(benchmark):
    stats = benchmark(run_drive)

    report = Report(
        "ablate_elastic",
        "A2 -- Elastic Management vs pinned pipelines "
        f"({DRIVE_SECONDS}s drive, deadline {DEADLINE_S * 1e3:.0f} ms)",
    )
    report.add_column("policy", 26)
    report.add_column("mean_ms", 16, ".1f", header="mean latency ms")
    report.add_column("violations", 12, "d")
    report.add_column("switches", 10, "d")
    for name, (mean_latency, violations, switches) in stats.items():
        report.add_row(
            policy=name, mean_ms=mean_latency * 1e3, violations=violations,
            switches=switches,
        )
    persist_report(report)

    elastic = stats["elastic"]
    for name, row in stats.items():
        if name != "elastic":
            assert elastic[1] <= row[1], f"elastic must not violate more than {name}"
    assert elastic[1] == 0, "elastic meets the deadline on every tick"
    assert elastic[2] > 2, "the drive forces multiple pipeline switches"
    # Elastic achieves (near-)best mean latency among all policies.
    best_pinned = min(row[0] for name, row in stats.items() if name != "elastic")
    assert elastic[0] <= best_pinned * 1.05
    # The numbers EXPERIMENTS.md states, to the precision it states them.
    assert (round(elastic[0] * 1e3), elastic[1], elastic[2]) == (345, 0, 14)
    onboard = stats["pinned:onboard"]
    assert (round(onboard[0] * 1e3, 1), onboard[1]) == (412.5, 0)
    assert [row[1] for name, row in stats.items()
            if name.startswith("pinned:") and name != "pinned:onboard"] == [390, 390]
