"""repro.fleet: crash-tolerant partitioned multi-process simulation.

The fleet substrate scales the platform's single-vehicle determinism
story to many vehicles across OS processes without giving any of it up:

* :mod:`repro.fleet.config` -- :class:`FleetConfig` (one config, any
  partition count, same traces) and per-worker :class:`PartitionSpec`;
* :mod:`repro.fleet.runtime` -- :class:`PartitionRuntime`, a shard of
  vehicles on one kernel, advanced in conservative time-sync rounds with
  all V2V traffic barrier-exchanged in canonical order;
* :mod:`repro.fleet.transport` -- the picklable coordinator<->worker
  protocol plus deadline-bounded pipes;
* :mod:`repro.fleet.journal` / :mod:`repro.fleet.recovery` -- the
  seed+replay crash-recovery contract: journal every inbound batch,
  respawn from spec, replay to the last committed barrier, prove the
  replay hash-identical;
* :mod:`repro.fleet.worker` -- the child process entry point and handle;
* :mod:`repro.fleet.plan` -- measured planning: per-vehicle kernel event
  counts from a short inline probe, packed into a greedy-LPT
  :class:`PartitionPlan`;
* :mod:`repro.fleet.coordinator` -- the one barrier exchange, hosted
  by :class:`FleetCoordinator` (worker processes: deadlines, straggler
  backoff, failover) or by :func:`run_inline` (in-process runtimes);
  :func:`run_single_process`, the unsharded golden reference a
  partitioned run must match hash for hash, is ``run_inline`` on one
  partition.
"""

from .config import FleetConfig, PartitionPlan, PartitionSpec, shard_vehicles
from .coordinator import (
    FleetCoordinator,
    FleetResult,
    FleetStats,
    RoundTiming,
    run_inline,
    run_single_process,
)
from .journal import JournalEntry, PartitionJournal, ReplayDivergence
from .recovery import FleetError, RecoveryPolicy, respawn_and_replay
from .runtime import PartitionRuntime, V2VBus, VehicleTraceHash
from .transport import (
    AdvanceCmd,
    BarrierTimeout,
    Envelope,
    FinishAck,
    FinishCmd,
    Hello,
    PipeEndpoint,
    RoundAck,
    WorkerFailed,
    WorkerGone,
    sort_envelopes,
)
from .worker import WorkerHandle, partition_worker_main, spawn_worker

__all__ = [
    "AdvanceCmd",
    "BarrierTimeout",
    "Envelope",
    "FinishAck",
    "FinishCmd",
    "FleetConfig",
    "FleetCoordinator",
    "FleetError",
    "FleetResult",
    "FleetStats",
    "Hello",
    "JournalEntry",
    "PartitionJournal",
    "PartitionPlan",
    "PartitionRuntime",
    "PartitionSpec",
    "PipeEndpoint",
    "RecoveryPolicy",
    "ReplayDivergence",
    "RoundAck",
    "RoundTiming",
    "V2VBus",
    "VehicleTraceHash",
    "WorkerFailed",
    "WorkerGone",
    "WorkerHandle",
    "partition_worker_main",
    "respawn_and_replay",
    "run_inline",
    "run_single_process",
    "shard_vehicles",
    "sort_envelopes",
    "spawn_worker",
]
