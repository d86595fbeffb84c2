"""A10 -- resilience ablation under a seeded fault storm (paper SIII-A).

A 120-second drive ships one edge-placed perception job per second while a
deterministic fault plan knocks processors, links and the cloud path in
and out.  Two executors face the *same* storm (same seed, same plan):

* ``resilience=off`` -- fault-aware but fail-fast: any fault that touches
  a job's transfer or compute kills the job;
* ``resilience=on`` -- retry with exponential backoff, park-until-recovery
  on dead links, and cross-tier failover after repeated same-tier failures.

Reported: job completion rate, deadline hits, retries/failovers.  The
resilient executor must strictly beat fail-fast on completions -- and
because the plan is seed-deterministic, this table reproduces exactly.
"""

from conftest import persist_report
from repro.obs import Report
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRates,
    RetryPolicy,
    world_fault_targets,
)
from repro.hw import WorkloadClass
from repro.offload import DistributedExecutor, Placement, Task, TaskGraph
from repro.sim import Simulator
from repro.topology import Tier, build_default_world

SEED = 2018
DRIVE_SECONDS = 120
JOB_PERIOD_S = 1.0
DEADLINE_S = 4.0

#: An intense storm: every component fails a few times over the drive.
STORM_RATES = {
    FaultKind.PROCESSOR_DOWN: FaultRates(mtbf_s=25.0, mttr_s=4.0),
    FaultKind.PROCESSOR_SLOW: FaultRates(mtbf_s=30.0, mttr_s=8.0,
                                         severity=(2.0, 5.0)),
    FaultKind.LINK_DOWN: FaultRates(mtbf_s=20.0, mttr_s=3.0),
    FaultKind.LINK_DEGRADED: FaultRates(mtbf_s=25.0, mttr_s=6.0,
                                        severity=(0.1, 0.5)),
    FaultKind.CLOUD_UNREACHABLE: FaultRates(mtbf_s=40.0, mttr_s=6.0),
}

RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.1, multiplier=2.0,
                    max_delay_s=2.0, same_tier_attempts=2)


def perception_graph(index: int) -> TaskGraph:
    return TaskGraph.chain(
        f"frame-{index:03d}",
        [
            Task("detect", 400.0, WorkloadClass.DNN, output_bytes=2_000,
                 source_bytes=400_000),
        ],
    )


def storm_plan() -> FaultPlan:
    processors, links = world_fault_targets(build_default_world())
    return FaultPlan.generate(
        seed=SEED,
        horizon_s=float(DRIVE_SECONDS),
        processors=processors,
        links=links,
        rates=STORM_RATES,
    )


def run_drive(plan: FaultPlan, resilient: bool) -> dict:
    world = build_default_world()
    sim = Simulator()
    trace = sim.attach_trace()
    injector = FaultInjector(sim, plan, world=world)
    executor = DistributedExecutor(
        sim, world, faults=injector, retry=RETRY if resilient else None
    )

    procs = []

    def spawner(sim):
        for i in range(DRIVE_SECONDS):
            graph = perception_graph(i)
            placement = Placement.uniform(graph, Tier.EDGE)
            procs.append(executor.submit(graph, placement,
                                         deadline_s=DEADLINE_S))
            yield sim.timeout(JOB_PERIOD_S)

    sim.process(spawner(sim))
    sim.run()

    results = [p.value for p in procs]
    completed = [r for r in results if not r.failed]
    return {
        "jobs": len(results),
        "completed": len(completed),
        "deadline_hits": sum(1 for r in completed if not r.missed_deadline),
        "retries": sum(r.retries for r in results),
        "failovers": sum(r.replacements for r in results),
        "mean_latency_s": (
            sum(r.latency_s for r in completed) / len(completed)
            if completed else float("nan")
        ),
        "trace_hash": trace.hexdigest(),
    }


def test_resilience_ablation(benchmark):
    plan = storm_plan()
    assert len(plan) > 10, "the storm must actually storm"

    off = run_drive(plan, resilient=False)
    on = benchmark(run_drive, plan, resilient=True)

    report = Report(
        "ablate_faults",
        f"A10 -- resilience ablation under one seeded fault storm "
        f"(seed {SEED}, {DRIVE_SECONDS}s, {len(plan)} fault windows, "
        f"deadline {DEADLINE_S:.0f}s)",
    )
    report.add_column("policy", 18)
    report.add_column("completed", 10, align="right")
    report.add_column("rate", 8, ".0%")
    report.add_column("deadline_hits", 14, "d", header="deadline-hit")
    report.add_column("retries", 9, "d")
    report.add_column("failovers", 11, "d")
    report.add_column("mean_latency_s", 12, ".3f", header="mean lat s")
    for name, row in (("fail-fast", off), ("resilient", on)):
        report.add_row(
            policy=name,
            completed=f"{row['completed']}/{row['jobs']}",
            rate=row["completed"] / row["jobs"],
            deadline_hits=row["deadline_hits"],
            retries=row["retries"],
            failovers=row["failovers"],
            mean_latency_s=row["mean_latency_s"],
        )
    report.note(
        f"event-loop trace hashes: fail-fast {off['trace_hash']}, "
        f"resilient {on['trace_hash']}"
    )
    persist_report(report)

    # The storm must actually hurt the fail-fast executor...
    assert off["completed"] < off["jobs"]
    # ...and resilience must strictly improve the completion rate.
    assert on["completed"] > off["completed"]
    assert on["retries"] > 0
    # Deterministic: the same plan replays to the same numbers.
    assert run_drive(plan, resilient=True) == on
    assert on["deadline_hits"] >= off["deadline_hits"]
