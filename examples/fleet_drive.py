#!/usr/bin/env python3
"""A crash-tolerant fleet drive: N vehicles, multiple worker processes.

Eight CAVs drive simultaneously, each a full platform instance (VCU,
elastic management, managed ADAS service), exchanging periodic V2V
beacons with ring neighbours.  The fleet is partitioned over worker
processes coordinated in conservative time-sync rounds; every partition
count produces the *same* per-vehicle event traces, which is the
substrate's determinism contract.

Modes (both are exercised in CI):

``--check``
    Also run the single-process golden reference and assert the
    partitioned run reproduces its per-vehicle trace hashes and merged
    metrics exactly; exit non-zero on divergence.
``--kill P:R``
    Inject a SIGKILL into partition P's worker at barrier round R
    (mid-run crash).  The coordinator respawns the partition from its
    seed, replays its journal, and the run must still match the
    reference when ``--check`` is also given.
``--plan-out plan.json``
    Emit a :class:`~repro.fleet.PartitionPlan` for this drive's config
    (from the flags or ``--scenario``) and exit: greedy-LPT shards
    balanced on per-vehicle kernel event counts measured by a short
    inline probe (:func:`repro.fleet.plan.plan_for_config`).
``--plan plan.json``
    Execute such a plan instead of round-robin shards.  ``--workload
    skewed`` selects the imbalanced service mix the planner balances;
    with ``--check`` the planned run must still match the reference byte
    for byte.  A malformed or mismatched plan file exits with a message.
``--scenario FILE``
    Compile a scenario document (the ``repro.scenarios`` DSL) into the
    drive config instead of building one from the flags above.  Sweep
    matrices pick the cell with ``--cell N`` (default 0).  ``--check``
    and ``--kill`` still compose on top of the compiled config.

Run:  python examples/fleet_drive.py [--partitions 4] [--check] [--kill 1:3]
      python examples/fleet_drive.py --workload skewed --plan-out plan.json
      python examples/fleet_drive.py --workload skewed --plan plan.json --check
      python examples/fleet_drive.py --scenario scenarios/fleet_smoke.yaml --check
"""

import argparse
import sys
from dataclasses import replace

from repro.faults import KillPhase, KillPlan
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    PartitionPlan,
    run_single_process,
)
from repro.fleet.plan import plan_for_config
from repro.workloads import STYLES


def parse_kill(text: str) -> KillPlan:
    try:
        partition, round_index = (int(part) for part in text.split(":"))
    except ValueError:
        raise SystemExit(f"--kill wants PARTITION:ROUND, got {text!r}")
    return KillPlan.single(partition, round_index, KillPhase.BEFORE_ACK)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vehicles", type=int, default=8)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--duration", type=float, default=20.0,
                        help="drive length in simulated seconds")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--check", action="store_true",
                        help="verify against the single-process reference")
    parser.add_argument("--kill", metavar="P:R", default=None,
                        help="SIGKILL partition P's worker at barrier R")
    parser.add_argument("--workload", choices=sorted(STYLES),
                        default="uniform",
                        help="per-vehicle service mix (default: uniform)")
    parser.add_argument("--plan", metavar="PATH", default=None,
                        help="execute a planner-emitted PartitionPlan JSON "
                             "instead of round-robin shards")
    parser.add_argument("--plan-out", metavar="PATH", default=None,
                        help="write a measured-cost PartitionPlan for this "
                             "config to PATH and exit")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="compile this scenario document into the drive "
                             "config instead of the flags above")
    parser.add_argument("--cell", type=int, default=0,
                        help="matrix cell index when --scenario sweeps "
                             "(default: 0)")
    args = parser.parse_args()

    if args.scenario:
        from repro.scenarios import ScenarioError, load_scenario
        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            raise SystemExit(str(exc))
        try:
            cell = scenario.cell(args.cell)
        except IndexError:
            raise SystemExit(
                f"--cell {args.cell} is out of range; "
                f"{args.scenario} has {len(scenario.cells)} cell(s)"
            )
        config = cell.config
        if args.kill:
            config = replace(config, kill_plan=parse_kill(args.kill))
        print(f"scenario {scenario.name}: cell `{cell.name}` "
              f"({config.vehicles} vehicles, {config.partitions} partitions)")
    else:
        try:
            config = FleetConfig(
                seed=args.seed,
                vehicles=args.vehicles,
                partitions=args.partitions,
                duration_s=args.duration,
                barrier_deadline_s=120.0,
                kill_plan=parse_kill(args.kill) if args.kill else None,
                workload=args.workload,
            )
        except ValueError as exc:
            raise SystemExit(f"invalid fleet: {exc}")
    if args.plan_out:
        plan = plan_for_config(config)
        plan.save(args.plan_out)
        print(f"wrote plan {args.plan_out}: shards {plan.shards}")
        return 0
    if args.plan:
        try:
            plan = PartitionPlan.load(args.plan)
            config = replace(config, plan=plan.shards_for(config))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--plan {args.plan}: {exc}")
        print(f"executing plan {args.plan}: shards {plan.shards}")
    with FleetCoordinator(config) as coordinator:
        result = coordinator.run()
    print(result.report().to_text())

    if not args.check:
        return 0
    reference = run_single_process(config)
    checks = {
        "vehicle trace hashes": (
            result.vehicle_hashes == reference.vehicle_hashes
        ),
        "merged metrics": result.metrics == reference.metrics,
        "total events": (
            result.stats.events_fired == reference.stats.events_fired
        ),
    }
    for label, passed in checks.items():
        print(f"check {label}: {'OK' if passed else 'DIVERGED'}")
    if args.kill:
        print(f"recovery: {result.stats.respawns} respawn(s), "
              f"{result.stats.rounds_replayed} round(s) replayed")
        if result.stats.respawns < 1:
            print("check kill injection: worker was never killed")
            return 1
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
