"""Matrix runner acceptance: DSL-compiled cells hash identically to the
same configs built in Python, partitioned and single-process alike."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.fleet.config import FleetConfig
from repro.fleet.coordinator import run_inline, run_single_process
from repro.scenarios import load_scenario, run_cell, run_matrix

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scenarios"
)


def smoke_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "fleet_smoke.yaml"))


def test_shipped_smoke_scenario_matches_hand_built_config():
    """The shipped 4-partition scenario compiles to the exact
    config a test would build by hand."""
    cell = smoke_scenario().cell(0)
    hand_built = FleetConfig(
        seed=42, vehicles=8, partitions=4, duration_s=12.0,
        barrier_s=1.0, workload="uniform",
        v2v_latency_s=1.0, beacon_period_s=2.0,
    )
    assert cell.config == hand_built


def test_dsl_trace_hashes_match_python_built_config_both_backends():
    """Per-vehicle blake2b trace hashes from the DSL-compiled config are
    byte-identical to the Python-built config's -- for the 4-partition
    fleet AND the single-process reference."""
    cell = smoke_scenario().cell(0)
    hand_built = FleetConfig(
        seed=42, vehicles=8, partitions=4, duration_s=12.0,
        barrier_s=1.0, workload="uniform",
        v2v_latency_s=1.0, beacon_period_s=2.0,
    )
    dsl_fleet = run_inline(cell.config)
    python_fleet = run_inline(hand_built)
    assert dsl_fleet.vehicle_hashes == python_fleet.vehicle_hashes
    dsl_reference = run_single_process(cell.config)
    python_reference = run_single_process(hand_built)
    assert dsl_reference.vehicle_hashes == python_reference.vehicle_hashes
    # The substrate's own contract ties the two runs together.
    assert dsl_fleet.vehicle_hashes == dsl_reference.vehicle_hashes


def test_run_cell_check_verdict():
    outcome = run_cell(smoke_scenario().cell(0), mode="inline", check=True)
    assert outcome.reference_ok is True
    assert outcome.name == "base"
    assert len(outcome.result.vehicle_hashes) == 8


def test_run_cell_check_sees_a_merged_metrics_split(monkeypatch):
    import repro.scenarios.runner as runner

    def split_reference(config):
        result = run_single_process(config)
        return replace(result, metrics={**result.metrics, "gauges": {}})

    monkeypatch.setattr(runner, "run_single_process", split_reference)
    outcome = run_cell(smoke_scenario().cell(0), mode="inline", check=True)
    assert outcome.reference_ok is False


def test_run_cell_unchecked_has_no_verdict():
    outcome = run_cell(smoke_scenario().cell(0), mode="reference")
    assert outcome.reference_ok is None


def test_run_cell_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_cell(smoke_scenario().cell(0), mode="imaginary")


def test_run_matrix_covers_every_cell_in_order():
    scenario = load_scenario(
        os.path.join(SCENARIO_DIR, "skewed_sweep.yaml")
    )
    outcomes = run_matrix(scenario, mode="reference")
    assert [o.name for o in outcomes] == [c.name for c in scenario.cells]
    # Partition count never changes the reference trace.
    by_workload = {}
    for outcome in outcomes:
        workload = dict(outcome.cell.overrides)["workload"]
        hashes = outcome.result.vehicle_hashes
        by_workload.setdefault(workload, hashes)
        assert by_workload[workload] == hashes


def test_crash_recovery_scenario_compiles_with_faults_and_plan():
    scenario = load_scenario(
        os.path.join(SCENARIO_DIR, "crash_recovery.yaml")
    )
    config = scenario.cell(0).config
    assert config.kill_plan is not None
    assert config.plan == ((0, 1), (2, 3), (4, 5))
    assert config.style_spec is not None
    assert config.style_spec.service_table == (2, 2, 3, 1, 2, 2)



def test_cli_out_of_range_cell_exits_two_with_one_line():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.scenarios", "run",
         os.path.join(SCENARIO_DIR, "fleet_smoke.yaml"), "--cell", "7"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "scenario 'fleet-smoke' has 1 cells; cell 7 does not exist\n"
    )
