"""Measured partition planning: balance shards on probed per-vehicle cost.

A plan is shard geometry, not behaviour: it only decides which vehicles
share a kernel, so every per-vehicle trace hash stays the reference's.
:func:`vehicle_costs` measures each vehicle's load as the kernel events
it fires in a short inline probe run, and :func:`plan_for_config` packs
those costs onto partitions with greedy LPT
(:func:`~repro.fleet.config.shard_vehicles`), wrapped in a
:class:`~repro.fleet.config.PartitionPlan` document that
``FleetConfig.plan`` executes.
"""

from __future__ import annotations

from dataclasses import replace

from .config import FleetConfig, PartitionPlan, shard_vehicles
from .coordinator import run_inline

__all__ = ["PROBE_HORIZON_S", "plan_for_config", "vehicle_costs"]

#: Simulated seconds of the cost probe run behind :func:`vehicle_costs`.
PROBE_HORIZON_S = 4.0


def vehicle_costs(config: FleetConfig) -> list[float]:
    """Measured per-vehicle cost: kernel events each vehicle of ``config``
    fires in the first :data:`PROBE_HORIZON_S` simulated seconds.

    The probe runs ``config`` inline with one vehicle per partition
    (round-robin, no plan, no faults), so each partition's event count
    is its vehicle's own load.  Counts are deterministic, so the plan
    built from them is too.
    """
    probe = replace(
        config, partitions=config.vehicles, duration_s=PROBE_HORIZON_S,
        plan=None, kill_plan=None, straggle_s=(),
    )
    events = run_inline(probe).stats.partition_events
    return [float(events[v]) for v in range(config.vehicles)]


def plan_for_config(config: FleetConfig) -> PartitionPlan:
    """A cost-balanced :class:`~repro.fleet.config.PartitionPlan` for
    ``config``, stamped with the lookahead and barrier step it runs at."""
    costs = vehicle_costs(config)
    shards = shard_vehicles(config.vehicles, config.partitions, costs)
    return PartitionPlan(
        vehicles=config.vehicles,
        partitions=config.partitions,
        shards=tuple(shards),
        costs=tuple(costs),
        method="greedy-lpt",
        seed=config.seed,
        workload=config.workload,
        lookahead_s=config.lookahead_s,
        barrier_s=config.barrier_step_s,
    )
