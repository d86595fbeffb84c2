"""Fleet substrate throughput: events/sec vs partition count and plan.

Measures the crash-tolerant fleet substrate end to end -- worker spawn,
conservative time-sync rounds over OS pipes, merge -- for the same drive
at 1, 2, and 4 partitions, plus the in-process single-simulator reference.
Two throughput figures per row: raw kernel events per wall second, and
the capacity metric that actually matters for scaling studies,
vehicle-simulation-seconds per wall second.

The skewed section is the planner's payoff demo: under the ``skewed``
workload style two vehicles carry 7 service stacks each, and round-robin
sharding at 4 partitions lands both on partition 0.  The planner
(``repro.fleet.plan``), balancing per-vehicle kernel event counts
measured by a short inline probe, isolates each heavy vehicle, which must cut
the busiest partition's event load (the per-round critical path) by
>=20% -- asserted on the deterministic per-partition event counts, so
the check holds on any hardware.  The wall-clock speedup is additionally
asserted when the host has a core per partition; on narrower machines
every shard timeshares one core and balance cannot move wall time.

The bench doubles as an equality audit: every partitioning (and every
plan) must produce the reference's per-vehicle trace hashes, or the
numbers are measuring two different workloads.
"""

import os
import time  # vdaplint: disable=DET001

import pytest

from conftest import persist_report
from repro.fleet.plan import plan_for_config
from repro.fleet import FleetConfig, FleetCoordinator, run_single_process
from repro.obs import Report

PARTITIONS = (1, 2, 4)
VEHICLES = 8
DURATION_S = 30.0
PLAN_SPEEDUP_FLOOR = 1.2


def fleet_config(partitions: int, workload: str = "uniform",
                 plan=None) -> FleetConfig:
    return FleetConfig(
        seed=17,
        vehicles=VEHICLES,
        partitions=partitions,
        duration_s=DURATION_S,
        barrier_deadline_s=120.0,
        workload=workload,
        plan=plan,
    )


def _timed(config):
    start = time.perf_counter()  # vdaplint: disable=DET001
    with FleetCoordinator(config) as coordinator:
        result = coordinator.run()
    return time.perf_counter() - start, result  # vdaplint: disable=DET001


def run_all():
    rows = []
    start = time.perf_counter()  # vdaplint: disable=DET001
    inline = run_single_process(fleet_config(1))
    rows.append(("inline", time.perf_counter() - start, inline))  # vdaplint: disable=DET001
    reference = inline
    for partitions in PARTITIONS:
        wall_s, result = _timed(fleet_config(partitions))
        assert result.vehicle_hashes == reference.vehicle_hashes, (
            f"{partitions}-partition run diverged from the reference"
        )
        rows.append((f"{partitions}p", wall_s, result))
    return rows


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def run_skewed():
    """Round-robin vs planned shards under the skewed workload."""
    skew_reference = run_single_process(fleet_config(1, workload="skewed"))
    rr_config = fleet_config(4, workload="skewed")
    rr_wall_s, rr = _timed(rr_config)
    assert rr.vehicle_hashes == skew_reference.vehicle_hashes, (
        "skewed round-robin run diverged from the reference"
    )
    plan = plan_for_config(rr_config)
    planned_config = fleet_config(
        4, workload="skewed", plan=plan.shards_for(rr_config)
    )
    plan_wall_s, planned = _timed(planned_config)
    assert planned.vehicle_hashes == skew_reference.vehicle_hashes, (
        "planned run diverged from the reference: the plan changed traces"
    )
    capacity_gain = rr.stats.critical_events() / planned.stats.critical_events()
    assert capacity_gain >= PLAN_SPEEDUP_FLOOR, (
        f"planned shards cut the critical partition only {capacity_gain:.2f}x "
        f"(floor {PLAN_SPEEDUP_FLOOR}x); plan: {plan.shards}"
    )
    if _usable_cores() >= rr_config.partitions:
        speedup = rr_wall_s / plan_wall_s
        assert speedup >= PLAN_SPEEDUP_FLOOR, (
            f"planned shards only {speedup:.2f}x over round-robin "
            f"(floor {PLAN_SPEEDUP_FLOOR}x); plan: {plan.shards}"
        )
    return [("skew-rr", rr_wall_s, rr), ("skew-plan", plan_wall_s, planned)]


@pytest.mark.benchmark(group="fleet")
def test_fleet_throughput(benchmark):
    rows = benchmark.pedantic(
        lambda: run_all() + run_skewed(), rounds=1, iterations=1
    )

    report = Report(
        "BENCH_fleet",
        f"Fleet throughput: {VEHICLES} vehicles, {DURATION_S:g}s drive, "
        f"partitioned vs inline, round-robin vs planned shards",
    )
    report.add_column("mode", 9, align="left")
    report.add_column("wall_s", 9, ".2f")
    report.add_column("events", 9, "d")
    report.add_column("events_per_s", 14, ".0f", header="events/s")
    report.add_column("vsim_per_wall", 16, ".1f", header="veh*sim-s/wall-s")
    report.add_column("crit_events", 12, "d", header="crit-events")
    report.add_column("spread_s", 10, ".2f", header="busy-spread")
    for mode, wall_s, result in rows:
        events = result.stats.events_fired
        report.add_row(
            mode=mode,
            wall_s=wall_s,
            events=events,
            events_per_s=events / wall_s,
            vsim_per_wall=VEHICLES * DURATION_S / wall_s,
            crit_events=result.stats.critical_events(),
            spread_s=result.stats.busy_spread_s(),
        )
    reference = rows[0][2]
    report.note(
        f"all uniform modes hash-identical over "
        f"{len(reference.vehicle_hashes)} vehicles "
        f"({reference.stats.events_fired} events)"
    )
    report.note(
        f"rounds per run: {reference.stats.rounds}; "
        f"envelopes routed: {reference.stats.envelopes_routed}"
    )
    by_mode = {mode: result for mode, _wall_s, result in rows}
    gain = (by_mode["skew-rr"].stats.critical_events()
            / by_mode["skew-plan"].stats.critical_events())
    report.note(
        f"skewed workload, 4 partitions: planned shards cut the critical "
        f"partition {gain:.2f}x vs round-robin (floor {PLAN_SPEEDUP_FLOOR}x); "
        f"wall-clock speedup additionally asserted with >=1 core/partition "
        f"(this host: {_usable_cores()})"
    )
    persist_report(report)
