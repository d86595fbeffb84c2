"""FleetConfig / PartitionSpec geometry and validation."""

import math
import pickle

import pytest

from repro.faults import KillPhase, KillPlan
from repro.fleet import FleetConfig, PartitionSpec, shard_vehicles
from repro.fleet.config import ConfigError


class TestShardVehicles:
    def test_round_robin(self):
        assert shard_vehicles(5, 2) == [(0, 2, 4), (1, 3)]

    def test_single_partition_owns_everything(self):
        assert shard_vehicles(4, 1) == [(0, 1, 2, 3)]

    def test_every_vehicle_exactly_once(self):
        shards = shard_vehicles(13, 5)
        flat = sorted(v for shard in shards for v in shard)
        assert flat == list(range(13))

    def test_more_partitions_than_vehicles_rejected(self):
        with pytest.raises(ValueError):
            shard_vehicles(2, 3)

    def test_lpt_isolates_the_heavies(self):
        # Two heavy vehicles at 0 and 4 (the skewed-style shape): LPT
        # gives each its own partition and splits the rest.
        costs = [3.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
        assert shard_vehicles(8, 4, costs) == [
            (0,), (4,), (1, 3, 6), (2, 5, 7)]

    def test_lpt_may_leave_a_partition_empty(self):
        # Zero-cost vehicles pile onto the lowest-index zero-load
        # partition, legally idling the last one.
        shards = shard_vehicles(3, 3, [1.0, 0.0, 0.0])
        assert shards == [(0,), (1, 2), ()]

    def test_lpt_uniform_costs_reduce_to_balanced_counts(self):
        shards = shard_vehicles(8, 4, [1.0] * 8)
        assert sorted(len(s) for s in shards) == [2, 2, 2, 2]
        assert sorted(v for s in shards for v in s) == list(range(8))

    def test_lpt_ties_break_by_lowest_index(self):
        first = shard_vehicles(6, 2, [2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        assert first == shard_vehicles(6, 2, [2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        assert first[0][0] == 0

    def test_cost_length_and_sign_validated(self):
        with pytest.raises(ValueError, match="one cost per vehicle"):
            shard_vehicles(4, 2, [1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            shard_vehicles(2, 2, [1.0, -0.5])


class TestBarriers:
    def test_default_step_is_the_lookahead(self):
        cfg = FleetConfig(vehicles=2, partitions=1, v2v_latency_s=2.0,
                          duration_s=8.0)
        assert cfg.barrier_step_s == 2.0
        assert cfg.barriers() == [2.0, 4.0, 6.0, 8.0]

    def test_final_barrier_is_exactly_the_duration(self):
        cfg = FleetConfig(vehicles=2, partitions=1, v2v_latency_s=1.0,
                          duration_s=5.5)
        barriers = cfg.barriers()
        assert barriers[-1] == 5.5
        assert barriers == [1.0, 2.0, 3.0, 4.0, 5.0, 5.5]

    def test_short_drive_is_one_barrier(self):
        cfg = FleetConfig(vehicles=2, partitions=1, v2v_latency_s=2.0,
                          duration_s=1.0)
        assert cfg.barriers() == [1.0]

    def test_barriers_strictly_increase(self):
        cfg = FleetConfig(vehicles=2, partitions=1, v2v_latency_s=0.7,
                          duration_s=10.0)
        barriers = cfg.barriers()
        assert all(b > a for a, b in zip(barriers, barriers[1:]))
        assert barriers[-1] == 10.0

    def test_step_beyond_lookahead_rejected(self):
        with pytest.raises(ValueError, match="conservative sync"):
            FleetConfig(vehicles=2, partitions=1, v2v_latency_s=1.0,
                        barrier_s=1.5)

    def test_rejection_names_the_derived_lookahead(self):
        # The error must teach the fix: it states the derived lookahead
        # (and its provenance) next to the offending step.
        with pytest.raises(ValueError, match=r"derived lookahead 1\.0"):
            FleetConfig(vehicles=2, partitions=1, v2v_latency_s=1.0,
                        barrier_s=1.5)

    def test_step_below_lookahead_allowed(self):
        cfg = FleetConfig(vehicles=2, partitions=1, v2v_latency_s=2.0,
                          barrier_s=0.5, duration_s=2.0)
        assert cfg.barriers() == [0.5, 1.0, 1.5, 2.0]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"vehicles": 0},
        {"vehicles": 2, "partitions": 0},
        {"vehicles": 2, "partitions": 3},
        {"duration_s": 0.0},
        {"tick_s": -1.0},
        {"v2v_latency_s": 0.0},
        {"beacon_period_s": 0.0},
        {"barrier_deadline_s": 0.0},
        {"tick_s": math.nan},
        {"beacon_period_s": math.nan},
        {"barrier_deadline_s": math.nan},
        {"barrier_s": math.nan},
        {"duration_s": math.nan},
        {"duration_s": math.inf},
        {"v2v_latency_s": math.inf},
        {"edge_spacing_m": -math.inf},
    ])
    def test_bad_configs_rejected(self, kwargs):
        # A non-finite value is rejected up front, naming its field.
        field = next((name for name, value in kwargs.items()
                      if isinstance(value, float) and not math.isfinite(value)),
                     None)
        with pytest.raises(ValueError, match=field):
            FleetConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, fields", [
        ({"vehicles": 0}, ("vehicles",)),
        ({"vehicles": 2, "partitions": 3}, ("partitions",)),
        ({"duration_s": 0.0}, ("duration_s",)),
        ({"tick_s": -1.0}, ("tick_s",)),
        ({"duration_s": math.nan}, ("duration_s",)),
        ({"edge_count": 0}, ("edge_count",)),
        ({"edge_spacing_m": 0.0}, ("edge_spacing_m",)),
        ({"edge_spacing_m": -math.inf}, ("edge_spacing_m",)),
        ({"workload": "chaotic"}, ("workload",)),
        ({"barrier_s": 1.5}, ("barrier_s",)),
        ({"barrier_s": -1.0}, ("barrier_s",)),
        ({"plan": ((0,), (1, 2))}, ("plan",)),
        # Every refusal is reported, each under its own field...
        ({"duration_s": -1.0, "beacon_period_s": 0.0},
         ("duration_s", "beacon_period_s")),
        ({"edge_count": 0, "edge_spacing_m": -5.0},
         ("edge_spacing_m", "edge_count")),
        # ...but a check that reads a refused field is skipped.
        ({"vehicles": 0, "partitions": 5}, ("vehicles",)),
        ({"vehicles": 0, "plan": ((0,),)}, ("vehicles",)),
        ({"v2v_latency_s": 0.0, "barrier_s": 0.5}, ("v2v_latency_s",)),
    ])
    def test_refusals_name_their_fields(self, kwargs, fields):
        with pytest.raises(ConfigError) as err:
            FleetConfig(**kwargs)
        assert tuple(name for name, _message in err.value.problems) == fields
        assert str(err.value) == "; ".join(
            message for _name, message in err.value.problems
        )

    @pytest.mark.parametrize("latency_s", [0.0, -0.5])
    def test_non_positive_latency_rejected(self, latency_s):
        # Zero latency leaves conservative sync no lookahead to advance
        # by; the rejection must name the latency, not the derived step.
        with pytest.raises(ValueError, match="v2v latency must be positive"):
            FleetConfig(vehicles=2, partitions=1, v2v_latency_s=latency_s)


class TestNeighbors:
    def test_ring(self):
        cfg = FleetConfig(vehicles=4, partitions=1)
        assert cfg.neighbors(0) == (1, 3)
        assert cfg.neighbors(2) == (1, 3)

    def test_pair_has_one_neighbor(self):
        cfg = FleetConfig(vehicles=2, partitions=1)
        assert cfg.neighbors(0) == (1,)
        assert cfg.neighbors(1) == (0,)

    def test_singleton_has_none(self):
        cfg = FleetConfig(vehicles=1, partitions=1)
        assert cfg.neighbors(0) == ()


class TestPartitionSpec:
    def test_spec_carries_only_own_faults(self):
        cfg = FleetConfig(
            vehicles=4, partitions=2, kill_plan=KillPlan.single(1, 2),
            straggle_s=(((0, 1), 2.0), ((1, 3), 4.0)),
        )
        spec0, spec1 = cfg.spec_for(0), cfg.spec_for(1)
        assert spec0.kill_plan is None
        assert spec1.kill_plan.kill_for(1, 2) is not None
        assert spec0.straggle_for(1) == 2.0
        assert spec0.straggle_for(3) == 0.0
        assert spec1.straggle_for(3) == 4.0

    def test_disarmed_clears_every_fault(self):
        cfg = FleetConfig(
            vehicles=4, partitions=2,
            kill_plan=KillPlan.single(0, 1, KillPhase.ON_ADVANCE),
            straggle_s=(((0, 2), 9.0),),
        )
        spec = cfg.spec_for(0).disarmed()
        assert spec.kill_plan is None
        assert spec.straggle_for(2) == 0.0
        assert spec.vehicle_indices == (0, 2)

    def test_spec_is_picklable(self):
        cfg = FleetConfig(vehicles=4, partitions=2,
                          kill_plan=KillPlan.single(1, 0))
        spec = cfg.spec_for(1)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_empty_shard_allowed(self):
        # A cost-balanced plan may idle a partition entirely.
        cfg = FleetConfig(vehicles=2, partitions=1)
        spec = PartitionSpec(config=cfg, partition=0, vehicle_indices=())
        assert spec.vehicle_indices == ()

    def test_unsorted_or_duplicate_shard_rejected(self):
        cfg = FleetConfig(vehicles=4, partitions=2)
        with pytest.raises(ValueError, match="sorted, once"):
            PartitionSpec(config=cfg, partition=0, vehicle_indices=(2, 0))
        with pytest.raises(ValueError, match="sorted, once"):
            PartitionSpec(config=cfg, partition=0, vehicle_indices=(1, 1))

    def test_vehicle_seeds_distinct(self):
        cfg = FleetConfig(seed=7, vehicles=16, partitions=2)
        seeds = {cfg.vehicle_seed(v) for v in range(16)}
        assert len(seeds) == 16


class TestWorkloadStyles:
    def test_uniform_is_the_default(self):
        cfg = FleetConfig(vehicles=4, partitions=2)
        assert cfg.workload == "uniform"
        assert [cfg.service_count(v) for v in range(4)] == [1, 1, 1, 1]

    def test_skewed_loads_every_fourth_vehicle(self):
        cfg = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        counts = [cfg.service_count(v) for v in range(8)]
        assert counts == [7, 1, 1, 1, 7, 1, 1, 1]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            FleetConfig(vehicles=2, partitions=1, workload="chaotic")


class TestConfigPlan:
    def test_plan_overrides_round_robin_shards(self):
        cfg = FleetConfig(vehicles=4, partitions=2,
                          plan=((0,), (1, 2, 3)))
        assert cfg.shards() == [(0,), (1, 2, 3)]
        assert cfg.spec_for(0).vehicle_indices == (0,)
        assert cfg.spec_for(1).vehicle_indices == (1, 2, 3)

    def test_plan_lists_are_normalized_to_tuples(self):
        cfg = FleetConfig(vehicles=4, partitions=2, plan=[[0], [1, 2, 3]])
        assert cfg.plan == ((0,), (1, 2, 3))

    @pytest.mark.parametrize("plan", [
        ((0,), (1, 2)),            # vehicle 3 unassigned
        ((0,), (1, 2, 3), ()),     # wrong partition count
        ((0, 1), (1, 2, 3)),       # vehicle 1 assigned twice
        ((1, 0), (2, 3)),          # unsorted shard
    ])
    def test_invalid_plans_rejected(self, plan):
        with pytest.raises(ValueError):
            FleetConfig(vehicles=4, partitions=2, plan=plan)
