"""Property-based tests (hypothesis) for fleet crash recovery.

The substrate's headline contract: killing any worker at **any** barrier,
in either kill phase, must recover -- via respawn from seed plus journal
replay -- to exactly the per-vehicle event-trace hashes an uncrashed run
produces.  Hypothesis sweeps the crash point; the reference run is
computed once per process (same config every example).

Each example spawns real worker processes, so the example budget stays
small; the fleet runs at the process benchmark's size (32 vehicles, 2
partitions) over 4 barriers, so recovery is exercised under load.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import KillPhase, KillPlan
from repro.fleet import FleetConfig, FleetCoordinator, run_single_process

BASE = FleetConfig(seed=21, vehicles=32, partitions=2, duration_s=4.0,
                   barrier_deadline_s=60.0)
BARRIER_COUNT = len(BASE.barriers())


@lru_cache(maxsize=1)
def reference():
    return run_single_process(BASE)


@given(
    partition=st.integers(min_value=0, max_value=BASE.partitions - 1),
    barrier_index=st.integers(min_value=0, max_value=BARRIER_COUNT - 1),
    phase=st.sampled_from(KillPhase.ALL),
)
@settings(max_examples=10, deadline=None)
def test_any_crash_point_recovers_to_the_uncrashed_trace(
    partition, barrier_index, phase
):
    killed = replace(
        BASE, kill_plan=KillPlan.single(partition, barrier_index, phase)
    )
    with FleetCoordinator(killed) as coordinator:
        result = coordinator.run()
    assert result.stats.respawns == 1
    assert result.vehicle_hashes == reference().vehicle_hashes
    assert result.metrics == reference().metrics
    assert result.stats.events_fired == reference().stats.events_fired
