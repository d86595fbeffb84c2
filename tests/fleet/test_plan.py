"""Measured costs and plan emission: the probe's per-vehicle event
counts and the greedy-LPT plan they produce.

The planner's promise is determinism: identical inputs must produce the
identical ``PartitionPlan`` document, and the plan must only ever
reassign vehicles -- never change what any vehicle computes.  The probe
counts kernel events, not wall time, so every assertion here is exact
on any host.  Hash invariance under random plans lives in
``tests/property/test_plan_invariance.py``.
"""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.fleet import run_inline, run_single_process
from repro.fleet.config import FleetConfig, PartitionPlan
from repro.fleet.plan import plan_for_config, vehicle_costs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FLEET_DRIVE = os.path.join(REPO_ROOT, "examples", "fleet_drive.py")

#: Minimum critical-partition cut a measured plan must deliver over
#: round-robin on the skewed workload.
PLAN_CUT_FLOOR = 1.2


class TestVehicleCosts:
    def test_skewed_style_marks_heavy_vehicles(self):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        costs = vehicle_costs(config)
        assert len(costs) == 8
        heavy = {i for i, c in enumerate(costs) if c == max(costs)}
        assert heavy == {0, 4}

    def test_uniform_style_is_flat(self):
        config = FleetConfig(vehicles=6, partitions=2)
        costs = vehicle_costs(config)
        assert len(set(costs)) == 1

    def test_probe_ignores_the_config_plan(self):
        config = FleetConfig(vehicles=4, partitions=2, workload="skewed")
        pinned = replace(config, plan=((0, 1, 2, 3), ()))
        assert vehicle_costs(pinned) == vehicle_costs(config)


@pytest.mark.parametrize("vehicles", [8, 32])
def test_measured_plan_cuts_critical_partition(vehicles):
    config = FleetConfig(vehicles=vehicles, partitions=4, workload="skewed")
    plan = plan_for_config(config)
    reference = run_single_process(config)
    round_robin = run_inline(config)
    planned = run_inline(replace(config, plan=plan.shards_for(config)))
    assert round_robin.vehicle_hashes == reference.vehicle_hashes
    assert planned.vehicle_hashes == reference.vehicle_hashes
    cut = round_robin.stats.critical_events() / planned.stats.critical_events()
    assert cut >= PLAN_CUT_FLOOR, (cut, plan.shards)


class TestPlanEmission:
    def test_skewed_plan_isolates_heavy_vehicles(self):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config)
        assert plan.method == "greedy-lpt"
        assert plan.shards == ((0,), (4,), (1, 3, 6), (2, 5, 7))
        assert plan.lookahead_s == 1.0
        assert plan.barrier_s == config.barrier_step_s

    def test_plan_stamps_the_configs_own_geometry(self):
        config = FleetConfig(vehicles=4, partitions=2, v2v_latency_s=2.0,
                             barrier_s=0.5)
        plan = plan_for_config(config)
        assert plan.lookahead_s == config.lookahead_s == 2.0
        assert plan.barrier_s == 0.5

    def test_plan_round_trips_through_json(self, tmp_path):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = PartitionPlan.load(str(path))
        assert loaded == plan
        # The on-disk form is canonical: sorted keys, trailing newline.
        text = path.read_text(encoding="utf-8")
        assert text == plan.dumps()
        assert text.endswith("\n")

    def test_emission_is_deterministic(self):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        assert plan_for_config(config).dumps() == \
            plan_for_config(config).dumps()

    def test_shards_for_rejects_mismatched_config(self):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config)
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=2, workload="skewed"))
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=4))


def run_fleet_drive(*argv):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, FLEET_DRIVE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestFleetDriveCli:
    def test_plan_out_writes_the_drive_configs_plan(self, tmp_path):
        out = tmp_path / "plan.json"
        proc = run_fleet_drive(
            "--vehicles", "8", "--partitions", "4", "--workload", "skewed",
            "--seed", "0", "--plan-out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        expected = plan_for_config(
            FleetConfig(seed=0, vehicles=8, partitions=4, workload="skewed")
        )
        assert out.read_text(encoding="utf-8") == expected.dumps()

    def test_malformed_plan_file_exits_with_a_message(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "shards": [[0]]}', encoding="utf-8")
        proc = run_fleet_drive("--plan", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "'vehicles'" in proc.stderr
