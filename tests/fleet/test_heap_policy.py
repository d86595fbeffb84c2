"""Heap policy: partitions freeze their built world, leave no per-tick
cycles, and record metrics only.

A fleet partition's round loop runs under ``gc.freeze()`` (see
``repro.fleet.runtime.frozen_heap``), so the cycle collector never
re-walks the vehicles' worlds; every exit path must unfreeze.  That only
pays if the loop itself leaves nothing for the cycle collector.
"""

import gc

import pytest

from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    PartitionRuntime,
    run_inline,
    run_single_process,
)
from repro.sim import SimulationError

from .misuse_fixtures import greedy_loop


@pytest.fixture(scope="module")
def config():
    return FleetConfig(seed=3, vehicles=4, partitions=2, duration_s=3.0,
                       barrier_deadline_s=60.0)


@pytest.fixture
def freeze_counts(monkeypatch):
    """Record the frozen-object count at every partition advance."""
    counts = []
    advance = PartitionRuntime.advance

    def counting(self, *args, **kwargs):
        counts.append(gc.get_freeze_count())
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(PartitionRuntime, "advance", counting)
    return counts


def test_partition_rounds_leave_no_reference_cycles():
    config = FleetConfig(seed=1, vehicles=8, partitions=1, duration_s=4.0,
                         workload="skewed")
    runtime = PartitionRuntime(config.spec_for(0).disarmed())
    runtime.launch()
    gc.collect()
    gc.freeze()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        inbound = ()
        for round_index, barrier_s in enumerate(config.barriers()):
            inbound = runtime.advance(round_index, barrier_s, inbound).outbound
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage})
        assert leaked == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.unfreeze()


def test_run_inline_freezes_its_rounds_and_unfreezes(config, freeze_counts):
    run_inline(config)
    assert freeze_counts and all(count > 0 for count in freeze_counts)
    assert gc.get_freeze_count() == 0


def test_run_single_process_freezes_its_rounds_and_unfreezes(
    config, freeze_counts
):
    run_single_process(config)
    assert freeze_counts and all(count > 0 for count in freeze_counts)
    assert gc.get_freeze_count() == 0


def test_coordinator_leaves_the_parent_heap_unfrozen(config):
    with FleetCoordinator(config) as coordinator:
        coordinator.run()
    assert gc.get_freeze_count() == 0


def test_a_raising_advance_unfreezes(config, monkeypatch):
    launch = PartitionRuntime.launch

    def launch_with_bypass(self):
        launch(self)
        self.sim.process(greedy_loop(self.sim, self.bus))

    monkeypatch.setattr(PartitionRuntime, "launch", launch_with_bypass)
    with pytest.raises(SimulationError, match=r"deliver|drain_outbox"):
        run_inline(config)
    assert gc.get_freeze_count() == 0


def test_partitions_record_metrics_only(config):
    runtime = PartitionRuntime(config.spec_for(0))
    assert runtime.collector.tracing is False
    runtime.launch()
    runtime.advance(0, 1.0)
    state = runtime.metrics_snapshot()
    assert state["counters"]["sim.events_fired"] > 0
    assert not any(key.startswith("sim.queue_depth")
                   for key in state["histograms"])
