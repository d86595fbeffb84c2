"""Fleet coordinator: one conservative time-sync exchange, two hosts.

:func:`_exchange` is the barrier exchange every fleet mode runs: per
round it sends each partition an :class:`~repro.fleet.transport.
AdvanceCmd` carrying the envelopes routed to it, collects each
:class:`~repro.fleet.transport.RoundAck` and routes its outbound
envelopes to their destination partitions; after the last barrier it
merges every partition's :class:`~repro.fleet.transport.FinishAck` into
one :class:`FleetResult`.  Modes differ only in where partitions live:

* :class:`FleetCoordinator` -- worker processes behind pipes.  It
  journals each batch before sending it, collects acks under a
  wall-clock barrier deadline, classifying silence as *straggler*
  (deadline passed, pipe open: wait again with backoff) or *crash*
  (pipe EOF: respawn from seed and replay the journal via
  :mod:`repro.fleet.recovery`), and commits each ack's kernel trace hash.
* :func:`run_inline` -- in-process runtimes, advanced as sent.
  :func:`run_single_process`, the golden reference, is ``run_inline``
  with every vehicle on one partition.

A partitioned run must therefore reproduce the reference's per-vehicle
trace hashes and merged mergeable-view metrics exactly -- the
substrate's correctness contract, asserted in CI with and without a
worker killed mid-run.

Use the coordinator as a context manager: exit terminates and joins every
worker (KeyboardInterrupt included), so no orphan processes survive.
"""

from __future__ import annotations

import time  # vdaplint: disable=DET001
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, NamedTuple, Protocol

from ..obs.metrics import merge_many, mergeable_view
from .config import FleetConfig
from .journal import PartitionJournal
from .recovery import (
    FleetError,
    RecoveryPolicy,
    recv_expected,
    respawn_and_replay,
)
from .runtime import PartitionRuntime, frozen_heap
from .transport import (
    AdvanceCmd,
    BarrierTimeout,
    Envelope,
    FinishAck,
    FinishCmd,
    Hello,
    RoundAck,
    WorkerFailed,
    WorkerGone,
)
from .worker import WorkerHandle, spawn_worker

if TYPE_CHECKING:
    from ..obs.report import Report

__all__ = [
    "FleetCoordinator",
    "FleetResult",
    "FleetStats",
    "RoundTiming",
    "run_inline",
    "run_single_process",
]


class RoundTiming(NamedTuple):
    """Where one partition's share of one barrier round went (wall clock).

    ``advance_wall_s`` is what the partition measured inside its advance
    (the ack's own figure); ``wait_s`` is how long the exchange
    then waited for that ack.  A diagnostic only: no hash, artifact or
    cross-host comparison reads it.
    """

    round_index: int
    partition: int
    advance_wall_s: float
    wait_s: float


@dataclass
class FleetStats:
    """What it took to complete the run."""

    rounds: int = 0
    envelopes_routed: int = 0
    stragglers: int = 0
    respawns: int = 0
    rounds_replayed: int = 0
    events_fired: int = 0
    #: Kernel events fired per partition (deterministic load signal).
    partition_events: dict[int, int] = field(default_factory=dict)
    #: One entry per round and partition, in exchange order (diagnostic).
    round_timings: list[RoundTiming] = field(default_factory=list)

    @property
    def partition_busy_s(self) -> dict[int, float]:
        """Wall-clock seconds each partition spent advancing (diagnostic)."""
        busy: dict[int, float] = {}
        for timing in self.round_timings:
            p = timing.partition
            busy[p] = busy.get(p, 0.0) + timing.advance_wall_s
        return busy

    def busy_spread_s(self) -> float:
        """Max-minus-min per-partition busy time: the imbalance signal."""
        busy = self.partition_busy_s
        if len(busy) < 2:
            return 0.0
        return max(busy.values()) - min(busy.values())

    def critical_events(self) -> int:
        """Events on the busiest partition: the per-round critical path.

        On hardware with a core per partition, round wall time tracks
        the heaviest shard, so this (unlike wall-clock) is the
        deterministic figure a partition plan is judged on.
        """
        return max(self.partition_events.values(), default=0)

    def as_dict(self) -> dict[str, float]:
        return {
            "rounds": self.rounds,
            "envelopes_routed": self.envelopes_routed,
            "stragglers": self.stragglers,
            "respawns": self.respawns,
            "rounds_replayed": self.rounds_replayed,
            "events_fired": self.events_fired,
            "critical_events": self.critical_events(),
            "busy_spread_s": round(self.busy_spread_s(), 6),
        }


@dataclass
class FleetResult:
    """The merged outcome of a fleet run (any partition count)."""

    config: FleetConfig
    vehicle_hashes: dict[int, str]
    partition_hashes: dict[int, str]
    vehicle_reports: dict[int, dict[str, Any]]
    metrics: dict
    stats: FleetStats = field(default_factory=FleetStats)

    def report(self) -> Report:
        """A unified :class:`~repro.obs.report.Report` of the run."""
        from ..obs.report import Report

        report = Report(
            "fleet_run",
            f"{self.config.vehicles} vehicles / {self.config.partitions} "
            f"partitions / {self.config.duration_s:g}s drive",
        )
        report.add_column("vehicle", 10)
        report.add_column("trace_hash", 18)
        report.add_column("energy_j", 12, fmt=".1f")
        report.add_column("invocations", 12, fmt="d")
        for vehicle in sorted(self.vehicle_hashes):
            info = self.vehicle_reports.get(vehicle, {})
            services = info.get("services", {})
            report.add_row(
                vehicle=info.get("label", str(vehicle)),
                trace_hash=self.vehicle_hashes[vehicle][:16],
                energy_j=info.get("vehicle_energy_j", 0.0),
                invocations=sum(
                    s.get("invocations", 0) for s in services.values()
                ),
            )
        for key, value in sorted(self.stats.as_dict().items()):
            report.note(f"{key}: {value}")
        return report


class _PartitionHost(Protocol):
    """Where a run's partitions live: the only thing modes differ in."""

    def send_advance(self, partition: int, cmd: AdvanceCmd) -> None:
        """Hand one partition its round command."""

    def await_ack(self, partition: int, cmd: AdvanceCmd) -> RoundAck:
        """That partition's ack for ``cmd``'s round."""

    def finish(self, partition: int) -> FinishAck:
        """End the partition; its final report."""


def _exchange(
    config: FleetConfig, host: _PartitionHost, stats: FleetStats
) -> FleetResult:
    """Run every barrier round of ``config`` over ``host``'s partitions,
    then merge their final reports: routing, stats and the merge, once.
    """
    partitions = range(config.partitions)
    dst_partition = {
        v: p for p, shard in enumerate(config.shards()) for v in shard
    }
    pending: dict[int, list[Envelope]] = {p: [] for p in partitions}
    for round_index, barrier_s in enumerate(config.barriers()):
        commands = {
            p: AdvanceCmd(round_index, barrier_s, tuple(pending[p]))
            for p in partitions
        }
        for p in partitions:
            host.send_advance(p, commands[p])
        pending = {p: [] for p in partitions}
        for p in partitions:
            started = time.perf_counter()  # vdaplint: disable=DET001
            ack = host.await_ack(p, commands[p])
            wait_s = time.perf_counter() - started  # vdaplint: disable=DET001
            stats.round_timings.append(
                RoundTiming(round_index, p, ack.advance_wall_s, wait_s)
            )
            for env in ack.outbound:
                pending[dst_partition[env.dst]].append(env)
            stats.envelopes_routed += len(ack.outbound)
        stats.rounds += 1
    finishes = [host.finish(p) for p in partitions]
    vehicle_hashes: dict[int, str] = {}
    vehicle_reports: dict[int, dict[str, Any]] = {}
    for ack in finishes:
        vehicle_hashes.update(ack.vehicle_hashes)
        vehicle_reports.update(ack.vehicle_reports)
        stats.events_fired += ack.events_fired
        stats.partition_events[ack.partition] = ack.events_fired
    return FleetResult(
        config=config,
        vehicle_hashes=dict(sorted(vehicle_hashes.items())),
        partition_hashes={ack.partition: ack.partition_hash for ack in finishes},
        vehicle_reports=dict(sorted(vehicle_reports.items())),
        metrics=mergeable_view(merge_many([ack.metrics for ack in finishes])),
        stats=stats,
    )


class FleetCoordinator:
    """Drives a partitioned fleet run end to end; owns the worker pool."""

    def __init__(
        self, config: FleetConfig, policy: RecoveryPolicy | None = None
    ):
        self.config = config
        self.policy = policy or RecoveryPolicy()
        self.stats = FleetStats()
        self.workers: dict[int, WorkerHandle] = {}
        self.journals = {
            p: PartitionJournal(p) for p in range(config.partitions)
        }
        self._finished = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Terminate and join every worker; close pipes (idempotent)."""
        for handle in self.workers.values():
            handle.terminate()
        self.workers.clear()

    # -- worker pool -------------------------------------------------------

    def _spawn_all(self) -> None:
        for p in range(self.config.partitions):
            self.workers[p] = spawn_worker(self.config.spec_for(p))
        for p, handle in self.workers.items():
            hello = handle.pipe.recv(self.config.barrier_deadline_s)
            if isinstance(hello, WorkerFailed):
                raise FleetError(
                    f"partition {p} failed to boot: {hello.error}"
                )
            if not isinstance(hello, Hello):
                raise FleetError(f"partition {p} sent {hello!r} before Hello")
            handle.hello = hello

    def _recover(self, partition: int) -> WorkerHandle:
        """Replace a dead/stuck worker with a replayed twin."""
        old = self.workers[partition]
        old.terminate()
        if old.respawns >= self.policy.max_respawns:
            raise FleetError(
                f"partition {partition} exceeded respawn budget "
                f"({self.policy.max_respawns})"
            )
        journal = self.journals[partition]
        handle = respawn_and_replay(
            old.spec,
            journal,
            self.config.barrier_deadline_s,
            previous=old,
        )
        self.workers[partition] = handle
        self.stats.respawns += 1
        self.stats.rounds_replayed += len(journal.committed_entries())
        return handle

    # -- the exchange's process host ---------------------------------------

    def send_advance(self, partition: int, cmd: AdvanceCmd) -> None:
        """Journal one round's batch, then send it to the worker."""
        self.journals[partition].record_advance(
            cmd.round_index, cmd.barrier_s, cmd.inbound
        )
        try:
            self.workers[partition].pipe.send(cmd)
        except WorkerGone:
            # Died between rounds: recover, then re-issue this round.
            self._recover(partition)
            self.workers[partition].pipe.send(cmd)

    def await_ack(self, partition: int, cmd: AdvanceCmd) -> RoundAck:
        """Collect and commit one round's ack, surviving stragglers and
        crashes."""
        deadline = self.config.barrier_deadline_s
        straggler_waits = 0
        while True:
            handle = self.workers[partition]
            try:
                ack = recv_expected(handle.pipe, deadline, RoundAck)
                break
            except BarrierTimeout:
                if straggler_waits < self.policy.straggler_retries:
                    straggler_waits += 1
                    handle.stragglers += 1
                    self.stats.stragglers += 1
                    deadline *= self.policy.straggler_backoff
                    continue
                # Out of patience: treat the stuck worker as dead.
                self.stats.stragglers += 1
            except WorkerGone:
                pass
            self._recover(partition)
            self.workers[partition].pipe.send(cmd)
            deadline = self.config.barrier_deadline_s
            straggler_waits = 0
        if ack.round_index != cmd.round_index:
            raise FleetError(
                f"ack for round {ack.round_index}, expected {cmd.round_index}"
            )
        self.journals[partition].commit(cmd.round_index, ack.partition_hash)
        return ack

    def finish(self, partition: int) -> FinishAck:
        """Order one worker to report, and receive its final report."""
        pipe = self.workers[partition].pipe
        pipe.send(FinishCmd())
        return recv_expected(pipe, self.config.barrier_deadline_s, FinishAck)

    # -- entry point -------------------------------------------------------

    def run(self) -> FleetResult:
        """Execute the whole drive; returns the merged fleet result."""
        if self._finished:
            raise RuntimeError("a coordinator runs exactly once")
        self._finished = True
        self._spawn_all()
        result = _exchange(self.config, self, self.stats)
        self.shutdown()
        return result


class _InlineHost:
    """Every partition as a :class:`PartitionRuntime` in this process."""

    def __init__(self, config: FleetConfig):
        self.runtimes = [
            PartitionRuntime(config.spec_for(p).disarmed())
            for p in range(config.partitions)
        ]
        for runtime in self.runtimes:
            runtime.launch()
        self.acks: dict[int, RoundAck] = {}

    def send_advance(self, partition: int, cmd: AdvanceCmd) -> None:
        self.acks[partition] = self.runtimes[partition].advance(
            cmd.round_index, cmd.barrier_s, cmd.inbound
        )

    def await_ack(self, partition: int, cmd: AdvanceCmd) -> RoundAck:
        return self.acks.pop(partition)

    def finish(self, partition: int) -> FinishAck:
        return self.runtimes[partition].finish()


def run_inline(config: FleetConfig) -> FleetResult:
    """A partitioned run without processes: N runtimes, one thread.

    Runs the same barrier exchange as the coordinator but hosts every
    :class:`PartitionRuntime` in this process, under ``frozen_heap()``.
    No fault injection and no recovery, so it is the cheap way to
    exercise *shard geometry* (plans, uneven and empty shards) against
    the single-process reference; the process-level path stays covered
    by the coordinator.
    """
    host = _InlineHost(config)
    with frozen_heap():
        return _exchange(config, host, FleetStats())


def run_single_process(config: FleetConfig) -> FleetResult:
    """The unsharded golden reference for ``config`` (no processes).

    :func:`run_inline` with every vehicle on one partition: its
    per-vehicle hashes and mergeable-view metrics are the ground truth a
    partitioned run of the same config must reproduce exactly.  ``plan``
    is shard geometry, not behaviour, so it is dropped with the faults.
    """
    return run_inline(
        replace(config, partitions=1, plan=None, kill_plan=None, straggle_s=())
    )
