"""Coordinator end-to-end: equality, recovery, stragglers, clean shutdown.

These tests spawn real worker processes.  Configs run at the size the
process benchmark runs (32 vehicles) over a few barriers, so crash
recovery and straggler failover are exercised under load.
"""

from dataclasses import replace

import pytest

from repro.faults import KillPhase, KillPlan
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetError,
    RecoveryPolicy,
    run_inline,
    run_single_process,
)


@pytest.fixture(scope="module")
def config():
    return FleetConfig(seed=5, vehicles=32, partitions=2, duration_s=5.0,
                       barrier_deadline_s=60.0)


@pytest.fixture(scope="module")
def reference(config):
    return run_single_process(config)


class TestEquality:
    def test_partitioned_run_matches_single_process(self, config, reference):
        with FleetCoordinator(config) as coordinator:
            result = coordinator.run()
        assert result.vehicle_hashes == reference.vehicle_hashes
        assert result.metrics == reference.metrics
        assert result.stats.events_fired == reference.stats.events_fired
        assert result.stats.respawns == 0

    def test_four_partitions_match_too(self, config, reference):
        with FleetCoordinator(replace(config, partitions=4)) as coordinator:
            result = coordinator.run()
        assert result.vehicle_hashes == reference.vehicle_hashes
        assert result.metrics == reference.metrics

    @pytest.mark.parametrize("shape", [
        {},
        {"partitions": 4, "workload": "skewed"},
    ], ids=["uniform-2", "skewed-4"])
    def test_inline_and_processes_agree_on_the_whole_result(self, config,
                                                            shape):
        shaped = replace(config, **shape)
        inline = run_inline(shaped)
        with FleetCoordinator(shaped) as coordinator:
            result = coordinator.run()
        for name in ("partition_hashes", "vehicle_hashes", "vehicle_reports",
                     "metrics"):
            assert getattr(result, name) == getattr(inline, name), name
        for name in ("rounds", "envelopes_routed", "events_fired",
                     "partition_events"):
            assert (getattr(result.stats, name)
                    == getattr(inline.stats, name)), name
        # Wall-clock round timing is kept by both hosts, compared by none.
        for stats in (result.stats, inline.stats):
            assert [(t.round_index, t.partition)
                    for t in stats.round_timings] == [
                (r, p) for r in range(stats.rounds)
                for p in range(shaped.partitions)
            ]

    def test_inline_run_reports_busy_time_outside_every_hash(self, config,
                                                             reference):
        inline = run_inline(config)
        shards = config.shards()
        assert shards[0] and shards[1]
        for partition in range(config.partitions):
            assert inline.stats.partition_busy_s[partition] > 0.0, partition
        assert inline.vehicle_hashes == reference.vehicle_hashes
        assert inline.metrics == reference.metrics

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_round_timings_hold_one_entry_per_round_and_partition(
            self, config, partitions):
        shaped = replace(config, vehicles=6, partitions=partitions)
        stats = run_inline(shaped).stats
        rounds = len(shaped.barriers())
        assert stats.rounds == rounds > 1
        assert [(t.round_index, t.partition)
                for t in stats.round_timings] == [
            (r, p) for r in range(rounds) for p in range(partitions)
        ]
        for timing in stats.round_timings:
            assert timing.advance_wall_s > 0.0 and timing.wait_s >= 0.0
        # Busy time is the per-round advances summed per partition.
        assert stats.partition_busy_s == {
            p: sum(t.advance_wall_s for t in stats.round_timings
                   if t.partition == p)
            for p in range(partitions)
        }
        # Timing stays out of the result's hashed and compared parts.
        assert "round_timings" not in stats.as_dict()

    def test_report_renders(self, config, reference):
        text = reference.report().to_text()
        assert "cav-000" in text
        assert "rounds: 5" in text
        lines = text.split("\n")
        assert lines[1].split() == ["vehicle", "trace_hash", "energy_j",
                                    "invocations"]
        # Every column stays a separate field: energy and invocations
        # must not run together.
        info = reference.vehicle_reports[0]
        label, _, energy, invocations = lines[2].split()
        assert label == info["label"]
        assert energy == f"{info['vehicle_energy_j']:.1f}"
        assert int(invocations) == sum(
            s["invocations"] for s in info["services"].values()
        )


class TestCrashRecovery:
    @pytest.mark.parametrize("phase", [KillPhase.ON_ADVANCE,
                                       KillPhase.BEFORE_ACK])
    def test_killed_worker_recovers_to_identical_hashes(
        self, config, reference, phase
    ):
        killed = replace(config, kill_plan=KillPlan.single(1, 2, phase))
        with FleetCoordinator(killed) as coordinator:
            result = coordinator.run()
        assert result.stats.respawns == 1
        assert result.vehicle_hashes == reference.vehicle_hashes
        assert result.metrics == reference.metrics

    def test_kill_at_first_barrier_recovers(self, config, reference):
        killed = replace(
            config, kill_plan=KillPlan.single(0, 0, KillPhase.ON_ADVANCE)
        )
        with FleetCoordinator(killed) as coordinator:
            result = coordinator.run()
        assert result.stats.respawns == 1
        assert result.stats.rounds_replayed == 0  # nothing committed yet
        assert result.vehicle_hashes == reference.vehicle_hashes

    def test_two_kills_same_partition_within_budget(self, config, reference):
        killed = replace(config, kill_plan=KillPlan(kills=(
            *KillPlan.single(0, 1, KillPhase.BEFORE_ACK).kills,
            *KillPlan.single(1, 3, KillPhase.ON_ADVANCE).kills,
        )))
        with FleetCoordinator(killed) as coordinator:
            result = coordinator.run()
        assert result.stats.respawns == 2
        assert result.vehicle_hashes == reference.vehicle_hashes


class TestStragglers:
    def test_straggler_rescued_by_backoff_retry(self, config, reference):
        slow = replace(config, barrier_deadline_s=0.6,
                       straggle_s=(((1, 1), 1.0),))
        with FleetCoordinator(slow) as coordinator:
            result = coordinator.run()
        assert result.stats.stragglers >= 1
        assert result.stats.respawns == 0
        assert result.vehicle_hashes == reference.vehicle_hashes

    def test_hopeless_straggler_fails_over(self, config, reference):
        stuck = replace(config, barrier_deadline_s=0.4,
                        straggle_s=(((1, 1), 30.0),))
        policy = RecoveryPolicy(straggler_retries=1, straggler_backoff=1.5)
        with FleetCoordinator(stuck, policy=policy) as coordinator:
            result = coordinator.run()
        assert result.stats.respawns == 1
        assert result.vehicle_hashes == reference.vehicle_hashes


class TestLifecycle:
    def test_exit_terminates_all_workers(self, config):
        coordinator = FleetCoordinator(config)
        with coordinator:
            coordinator._spawn_all()
            handles = list(coordinator.workers.values())
            assert all(h.process.is_alive() for h in handles)
        assert coordinator.workers == {}
        assert all(not h.process.is_alive() for h in handles)

    def test_shutdown_mid_run_leaves_no_orphans(self, config):
        coordinator = FleetCoordinator(config)
        coordinator._spawn_all()
        handles = list(coordinator.workers.values())
        coordinator.shutdown()
        for handle in handles:
            assert not handle.process.is_alive()
        coordinator.shutdown()  # idempotent

    def test_coordinator_runs_exactly_once(self, config):
        with FleetCoordinator(config) as coordinator:
            coordinator.run()
            with pytest.raises(RuntimeError, match="exactly once"):
                coordinator.run()

    def test_respawn_budget_enforced(self, config):
        # Partition 1 stalls forever on every early round; with a zero
        # respawn budget the first failover must abort the fleet.
        stuck = replace(config, barrier_deadline_s=0.3,
                        straggle_s=(((1, 0), 30.0),))
        policy = RecoveryPolicy(max_respawns=0, straggler_retries=0)
        with FleetCoordinator(stuck, policy=policy) as coordinator:
            with pytest.raises(FleetError, match="respawn budget"):
                coordinator.run()
