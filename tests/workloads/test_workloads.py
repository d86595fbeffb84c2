"""Tests for workload generators and metrics helpers."""

import numpy as np
import pytest

from repro.obs import Summary, Timeline
from repro.topology import Tier
from repro.workloads import (
    FEATURES,
    MANEUVERS,
    STANDARD_MIX,
    DriverProfile,
    adas_frame_graph,
    amber_search_graph,
    diagnostics_graph,
    driver_dataset,
    fleet_dataset,
    infotainment_chunk_graph,
    maneuver_window,
    random_profile,
)


def test_driver_profile_validation():
    with pytest.raises(ValueError):
        DriverProfile("d", aggressiveness=0.0)
    with pytest.raises(ValueError):
        DriverProfile("d", smoothness=-1.0)


def test_maneuver_window_shape_and_unknown():
    profile = DriverProfile("d")
    window = maneuver_window("cruise", profile, np.random.default_rng(0))
    assert window.shape == (len(FEATURES),)
    with pytest.raises(ValueError):
        maneuver_window("teleport", profile, np.random.default_rng(0))


def test_aggressive_driver_has_hotter_dynamics():
    rng = np.random.default_rng(0)
    calm = DriverProfile("calm", aggressiveness=0.8)
    hot = DriverProfile("hot", aggressiveness=2.0)
    calm_accel = np.mean(
        [maneuver_window("accelerate", calm, rng)[2] for _ in range(50)]
    )
    hot_accel = np.mean(
        [maneuver_window("accelerate", hot, rng)[2] for _ in range(50)]
    )
    assert hot_accel > calm_accel + 1.0


def test_driver_dataset_shapes_and_labels():
    x, y = driver_dataset(DriverProfile("d"), 80, np.random.default_rng(0))
    assert x.shape == (80, len(FEATURES))
    assert set(np.unique(y)) <= set(range(len(MANEUVERS)))
    with pytest.raises(ValueError):
        driver_dataset(DriverProfile("d"), 0, np.random.default_rng(0))


def test_fleet_dataset_pools_drivers():
    x, y = fleet_dataset(5, 20, np.random.default_rng(0))
    assert x.shape == (100, len(FEATURES))


def test_random_profile_is_reproducible():
    a = random_profile("d", np.random.default_rng(3))
    b = random_profile("d", np.random.default_rng(3))
    assert a == b


def test_service_graphs_are_valid_dags():
    for factory in (adas_frame_graph, amber_search_graph,
                    infotainment_chunk_graph, diagnostics_graph):
        graph = factory()
        assert len(graph) >= 2
        assert graph.roots and graph.sinks
        # Source data enters at a root.
        assert any(graph.task(r).source_bytes > 0 for r in graph.roots)


def test_adas_graph_fans_out_and_joins():
    graph = adas_frame_graph()
    assert graph.roots == ["capture"]
    assert set(graph.predecessors("fuse-alert")) == {"lane-detect", "vehicle-detect"}


def test_adas_service_names_the_graph_tasks_without_building_one(monkeypatch):
    from repro.apps.adas import make_adas_service
    from repro.offload.task import TaskGraph
    from repro.workloads.services import ADAS_TASKS

    assert ADAS_TASKS == tuple(adas_frame_graph().task_names)
    built = []
    monkeypatch.setattr(TaskGraph, "add_task",
                        lambda self, task: built.append(task.name))
    service = make_adas_service()
    assert built == []
    for pipeline in service.pipelines:
        assert tuple(pipeline.assignment) == ADAS_TASKS


def test_standard_mix_deadlines_ordered_by_criticality():
    deadlines = [deadline for _f, deadline in STANDARD_MIX]
    assert deadlines == sorted(deadlines)


def test_summary_statistics():
    summary = Summary("lat")
    for v in (1.0, 2.0, 3.0, 4.0, 100.0):
        summary.record(v)
    assert summary.count == 5
    assert summary.mean == pytest.approx(22.0)
    assert summary.p50 == pytest.approx(3.0)
    assert summary.maximum == 100.0
    row = summary.row()
    assert row["name"] == "lat" and row["p95"] > row["p50"]


def test_summary_empty_and_validation():
    summary = Summary("x")
    assert summary.mean == 0.0 and summary.p99 == 0.0
    with pytest.raises(ValueError):
        summary.percentile(101)


def test_timeline_records_and_queries():
    timeline = Timeline("pipeline")
    timeline.record(0.0, "onboard")
    timeline.record(10.0, "split")
    timeline.record(20.0, "onboard")
    assert timeline.changes() == 2
    with pytest.raises(ValueError):
        timeline.record(5.0, "late")


def _unused(tier=Tier.VEHICLE):
    return tier
