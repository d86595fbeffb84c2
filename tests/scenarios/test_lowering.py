"""Lowering: shipped scenarios equal hand-built configs, and every
``FleetConfig`` refusal lands on the line of the key that caused it."""

import os

import pytest

from repro.faults.prockill import KillPlan, WorkerKill
from repro.fleet.config import FleetConfig
from repro.scenarios import load_scenario, parse_text, validate
from repro.workloads.styles import WorkloadStyle

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


def _expected_configs():
    """Each shipped scenario's cells, written out by hand."""
    smoke = FleetConfig(
        seed=42, vehicles=8, partitions=4, duration_s=12.0, barrier_s=1.0,
        workload="uniform", v2v_latency_s=1.0, beacon_period_s=2.0,
    )
    sweep = [
        FleetConfig(seed=7, vehicles=8, partitions=partitions,
                    duration_s=8.0, v2v_latency_s=1.0, workload=workload)
        for partitions in (1, 2, 4) for workload in ("uniform", "skewed")
    ]
    crash = FleetConfig(
        seed=11, vehicles=6, partitions=3, duration_s=9.0,
        workload="commuter",
        style_spec=WorkloadStyle(name="commuter",
                                 service_table=(2, 2, 3, 1, 2, 2)),
        plan=((0, 1), (2, 3), (4, 5)),
        kill_plan=KillPlan(kills=(WorkerKill(1, 2, "on-advance"),)),
    )
    control = [
        FleetConfig(
            seed=seed, vehicles=4, partitions=2, duration_s=6.0,
            barrier_s=1.0, workload="calm", v2v_latency_s=1.0,
            beacon_period_s=2.0,
            style_spec=WorkloadStyle(name="calm", service_table=(1, 2, 1, 1)),
            plan=((0, 2), (1, 3)),
            kill_plan=KillPlan(kills=(WorkerKill(0, 1, "before-ack"),)),
        )
        for seed in (5, 6)
    ]
    return {
        "scenarios/fleet_smoke.yaml": [smoke],
        "scenarios/skewed_sweep.yaml": sweep,
        "scenarios/crash_recovery.yaml": [crash],
        "tests/analysis/scenario_fixtures/clean_control.yaml": control,
    }


def test_every_shipped_scenario_is_covered():
    shipped = sorted(
        f"scenarios/{name}" for name in os.listdir(os.path.join(ROOT, "scenarios"))
        if name.endswith(".yaml")
    )
    assert shipped == sorted(
        path for path in _expected_configs() if path.startswith("scenarios/")
    )


@pytest.mark.parametrize("path, expected", sorted(_expected_configs().items()))
def test_scenario_cells_equal_hand_built_configs(path, expected):
    scenario = load_scenario(os.path.join(ROOT, path))
    assert [cell.config for cell in scenario.cells] == expected


def findings(text):
    return [(issue.line, issue.rule) for issue in validate(parse_text(text))]


@pytest.mark.parametrize("text, expected", [
    pytest.param(
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -1.0\n",
        [(3, "SCN001")], id="negative-base-duration",
    ),
    pytest.param(
        "fleet:\n"
        "  vehicles: 4\n"
        "sweep:\n"
        "  partitions:\n"
        "    - 2\n"
        "    - 8\n",
        [(6, "SCN001")], id="swept-partitions-above-vehicles",
    ),
    pytest.param(
        "fleet:\n"
        "  vehicles: 4\n"
        "  partitions: 2\n"
        "plan:\n"
        "  shards:\n"
        "    - [0, 1]\n"
        "    - [2, 7]\n",
        [(5, "SCN003")], id="plan-shard-id-out-of-range",
    ),
    pytest.param(
        "fleet:\n"
        "  vehicles: 4\n"
        "  barrier_s: 2.0\n"
        "links:\n"
        "  v2v_latency_s: 1.0\n",
        [(3, "SCN001")], id="barrier-above-latency",
    ),
])
def test_refusal_lands_on_its_key(text, expected):
    assert findings(text) == expected


def test_two_bad_fields_in_one_cell_give_two_findings():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -1.0\n"
        "links:\n"
        "  beacon_period_s: 0.0\n"
    )
    assert findings(text) == [(3, "SCN001"), (5, "SCN001")]


def messages(text):
    return [
        (issue.line, issue.message, issue.cells)
        for issue in validate(parse_text(text))
    ]


def test_a_base_refusal_under_a_sweep_is_one_finding_for_every_cell():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -1.0\n"
        "sweep:\n"
        "  seed: [1, 2, 3]\n"
        "  tick_s: [0.5, 1.0]\n"
    )
    ((line, message, cells),) = messages(text)
    assert line == 3
    assert message == "every cell fails to lower: duration must be positive, got -1.0"
    assert len(cells) == 6


def test_a_refusal_shared_by_some_cells_names_each_of_them():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "  barrier_s: 2.5\n"
        "sweep:\n"
        "  seed: [1, 2]\n"
        "  v2v_latency_s: [1.0, 3.0]\n"
    )
    ((line, message, cells),) = messages(text)
    assert line == 3
    assert message.startswith(
        "cells `seed=1/v2v_latency_s=1.0`, `seed=2/v2v_latency_s=1.0` "
        "fail to lower: conservative sync violated"
    )
    assert cells == ("seed=1/v2v_latency_s=1.0", "seed=2/v2v_latency_s=1.0")
