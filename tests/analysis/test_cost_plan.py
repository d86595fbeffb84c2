"""Measured costs and plan emission: the probe's per-vehicle event
counts, the greedy-LPT plan they produce, and the fleet-spec parser.

The planner's promise is determinism: identical inputs must produce the
identical ``PartitionPlan`` document, and the plan must only ever
reassign vehicles -- never change what any vehicle computes.  The probe
counts kernel events, not wall time, so every assertion here is exact
on any host.  Hash invariance under random plans lives in
``tests/property/test_plan_invariance.py``.
"""

import os
from dataclasses import replace

import pytest

from repro.analysis import (
    build_graph,
    emit_plan,
    parse_fleet_spec,
    plan_for_config,
    vehicle_costs,
)
from repro.fleet import run_inline, run_single_process
from repro.fleet.config import FleetConfig, PartitionPlan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

#: Minimum critical-partition cut a measured plan must deliver over
#: round-robin on the skewed workload.
PLAN_CUT_FLOOR = 1.2


@pytest.fixture(scope="module")
def graph():
    return build_graph([SRC_REPRO])


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
def test_measured_plan_cuts_critical_partition(vehicles, graph):
    config = FleetConfig(vehicles=vehicles, partitions=4, workload="skewed")
    plan = plan_for_config(config, graph=graph)
    reference = run_single_process(config)
    round_robin = run_inline(config)
    planned = run_inline(replace(config, plan=plan.shards_for(config)))
    assert round_robin.vehicle_hashes == reference.vehicle_hashes
    assert planned.vehicle_hashes == reference.vehicle_hashes
    cut = round_robin.stats.critical_events() / planned.stats.critical_events()
    assert cut >= PLAN_CUT_FLOOR, (cut, plan.shards)


class TestFleetSpec:
    def test_defaults_and_overrides(self):
        spec = parse_fleet_spec("vehicles=12,partitions=3,workload=skewed")
        assert spec["vehicles"] == 12
        assert spec["partitions"] == 3
        assert spec["workload"] == "skewed"
        assert spec["seed"] == 0
        assert spec["duration_s"] == 30.0

    def test_duration_alias(self):
        assert parse_fleet_spec("duration=5")["duration_s"] == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bad fleet spec item"):
            parse_fleet_spec("barrier=2.0")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError):
            parse_fleet_spec("vehicles")
        with pytest.raises(ValueError):
            parse_fleet_spec("vehicles=two")


class TestPlanEmission:
    def test_skewed_plan_isolates_heavy_vehicles(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        assert plan.method == "greedy-lpt"
        assert plan.shards == ((0,), (4,), (1, 3, 6), (2, 5, 7))
        assert plan.lookahead_s == 1.0
        assert plan.barrier_s == config.barrier_step_s

    def test_plan_round_trips_through_json(self, graph, tmp_path):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = PartitionPlan.load(str(path))
        assert loaded == plan
        # The on-disk form is canonical: sorted keys, trailing newline.
        text = path.read_text(encoding="utf-8")
        assert text == plan.dumps()
        assert text.endswith("\n")

    def test_emit_plan_spec_controls_shape(self, graph):
        plan = emit_plan(graph, fleet=parse_fleet_spec("vehicles=6,partitions=2"))
        assert plan.vehicles == 6
        assert plan.partitions == 2
        assert sorted(v for shard in plan.shards for v in shard) == list(range(6))

    def test_emission_is_deterministic(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        assert plan_for_config(config, graph=graph).dumps() == \
            plan_for_config(config, graph=graph).dumps()

    def test_shards_for_rejects_mismatched_config(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=2, workload="skewed"))
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=4))
