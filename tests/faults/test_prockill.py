"""KillPlan: validation, lookup and sub-plans."""

import pickle

import pytest

from repro.faults import KillPhase, KillPlan, WorkerKill


class TestWorkerKill:
    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            WorkerKill(partition=-1, barrier_index=0)
        with pytest.raises(ValueError):
            WorkerKill(partition=0, barrier_index=-2)

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="phase"):
            WorkerKill(partition=0, barrier_index=0, phase="sometime")


class TestKillPlan:
    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KillPlan(kills=(
                WorkerKill(0, 1, KillPhase.ON_ADVANCE),
                WorkerKill(0, 1, KillPhase.BEFORE_ACK),
            ))

    def test_lookup_and_partition_filter(self):
        plan = KillPlan(kills=(WorkerKill(0, 1), WorkerKill(2, 3)))
        assert plan.kill_for(0, 1) is not None
        assert plan.kill_for(0, 2) is None
        sub = plan.for_partition(2)
        assert len(sub) == 1
        assert sub.kill_for(2, 3) is not None
        assert sub.kill_for(0, 1) is None

    def test_single_helper(self):
        plan = KillPlan.single(1, 4, KillPhase.ON_ADVANCE)
        assert len(plan) == 1
        assert plan.kill_for(1, 4).phase == KillPhase.ON_ADVANCE

    def test_picklable(self):
        plan = KillPlan.single(1, 4)
        assert pickle.loads(pickle.dumps(plan)) == plan

