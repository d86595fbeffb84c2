"""A8 -- the paper's SIII-B power argument: compute draw costs EV range.

"Deploying the power-hungry processors locally will affect the mileage per
discharge cycle."  This ablation runs a continuous ADAS perception load
for a one-hour drive under three on-board configurations (V100-class GPU,
Jetson-class GPU, DSP stick + edge offload) and reports compute energy and
the EV range given up.
"""

import pytest

from conftest import persist_report
from repro.hw import EVBattery, WorkloadClass, catalog
from repro.obs import Report
from repro.workloads import adas_frame_graph

DRIVE_HOURS = 1.0
FPS = 10.0  # perception invocations per second


def scenario_energy(processor, offload_detect: bool) -> tuple[float, float, float]:
    """(energy J, duty cycle, max sustainable fps) for the drive.

    If the device cannot sustain the target rate it saturates: duty pins
    at 1.0 and it simply drops frames (the paper's SI example of the
    second application not producing a timely decision).
    """
    graph = adas_frame_graph()
    detect = graph.task("vehicle-detect")
    lane = graph.task("lane-detect")
    per_frame_s = lane.work_gop / processor.effective_gops(WorkloadClass.VISION)
    if not offload_detect:
        per_frame_s += detect.work_gop / processor.effective_gops(WorkloadClass.DNN)
    wall_s = DRIVE_HOURS * 3600.0
    busy_s = min(wall_s, wall_s * FPS * per_frame_s)
    duty = busy_s / wall_s
    joules = processor.tdp_watts * busy_s + processor.idle_watts * (wall_s - busy_s)
    return joules, duty, 1.0 / per_frame_s


def sweep():
    rows = []
    configs = (
        ("V100 on board", catalog.tesla_v100(), False),
        ("Jetson TX2 on board", catalog.jetson_tx2_maxp(), False),
        ("i7 CPU on board", catalog.intel_i7_6700(), False),
        ("DSP + edge offload", catalog.intel_mncs(), True),
    )
    for label, processor, offload in configs:
        joules, duty, max_fps = scenario_energy(processor, offload)
        battery = EVBattery()
        range_cost = battery.range_cost_km(joules)
        rows.append((label, joules, duty, max_fps, range_cost))
    return rows


def test_energy_and_range(benchmark):
    rows = benchmark(sweep)

    report = Report(
        "ablate_energy",
        "A8 -- on-board compute energy over a 1 h drive at 10 ADAS fps",
    )
    report.add_column("configuration", 22)
    report.add_column("energy_kj", 11, ".1f", header="energy kJ")
    report.add_column("duty", 7, ".2f")
    report.add_column("max_fps", 9, ".1f", header="max fps")
    report.add_column("range_km", 15, ".3f", header="range cost km")
    report.add_column("sustains", 12, header="sustains?", align="right")
    for label, joules, duty, max_fps, range_cost in rows:
        report.add_row(
            configuration=label, energy_kj=joules / 1e3, duty=duty,
            max_fps=max_fps, range_km=range_cost,
            sustains="yes" if max_fps >= FPS else "NO",
        )
    persist_report(report)

    by_label = {label: (joules, duty, fps, km) for label, joules, duty, fps, km in rows}
    v100 = by_label["V100 on board"]
    offload = by_label["DSP + edge offload"]
    # The paper's SIII-B dilemma, quantified: only the power-hungry GPU
    # sustains the perception rate on board -- at real range cost -- while
    # the mid-tier devices saturate and drop frames.
    assert v100[2] >= FPS and offload[2] >= FPS
    assert by_label["Jetson TX2 on board"][2] < FPS
    assert by_label["i7 CPU on board"][2] < FPS
    assert v100[0] > 10 * offload[0]
    assert v100[3] > 0.1  # tenths of km per driving hour
    assert offload[3] < 0.05
    # The numbers EXPERIMENTS.md states, to the precision it states them.
    assert (round(v100[0] / 1e3), round(v100[3], 2)) == (671, 1.16)
    assert (round(offload[0] / 1e3), round(offload[3], 3)) == (1, 0.002)
    assert round(by_label["Jetson TX2 on board"][2], 1) == 3.3
    assert round(by_label["i7 CPU on board"][2], 1) == 2.4
