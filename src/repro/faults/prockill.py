"""Process-kill faults: crash a fleet partition worker at a chosen barrier.

The faults in :mod:`repro.faults.plan` live *inside* the simulation: a
processor goes down on the sim clock and the platform reacts on the sim
clock.  A :class:`KillPlan` targets the layer underneath -- the OS
processes that host fleet partitions (:mod:`repro.fleet`).  Each
:class:`WorkerKill` names a partition, a barrier round, and a phase within
the round; when its round arrives, the worker delivers ``SIGKILL`` to
itself, exactly the failure a crashed container or OOM-killed worker
produces (no cleanup, no goodbye message, pipe goes EOF).

Kill plans are picklable data, so a crash experiment is as reproducible
as a drive: the same plan kills the same worker at the
same barrier every run, and the coordinator's seed+replay recovery must
converge to the same event-trace hashes as an unkilled run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KillPhase", "WorkerKill", "KillPlan"]


class KillPhase:
    """Where in a barrier round the worker dies.

    ``ON_ADVANCE`` -- immediately on receiving the round's advance command
    (no work done; replay re-runs the round from the last barrier).
    ``BEFORE_ACK`` -- after simulating the round but before acking it (the
    round's work is lost with the process: the nastier case, because the
    worker *did* the work and recovery must prove the redo is identical).
    """

    ON_ADVANCE = "on-advance"
    BEFORE_ACK = "before-ack"

    ALL = (ON_ADVANCE, BEFORE_ACK)


@dataclass(frozen=True)
class WorkerKill:
    """One scheduled crash: partition ``partition`` dies in round ``barrier_index``."""

    partition: int
    barrier_index: int
    phase: str = KillPhase.BEFORE_ACK

    def __post_init__(self):
        if self.partition < 0:
            raise ValueError(f"partition must be >= 0, got {self.partition}")
        if self.barrier_index < 0:
            raise ValueError(f"barrier index must be >= 0, got {self.barrier_index}")
        if self.phase not in KillPhase.ALL:
            raise ValueError(f"unknown kill phase {self.phase!r}")


@dataclass(frozen=True)
class KillPlan:
    """A set of scheduled worker crashes (at most one per partition+round)."""

    kills: tuple[WorkerKill, ...] = field(default_factory=tuple)

    def __post_init__(self):
        seen = set()
        for kill in self.kills:
            key = (kill.partition, kill.barrier_index)
            if key in seen:
                raise ValueError(
                    f"duplicate kill for partition {kill.partition} "
                    f"at barrier {kill.barrier_index}"
                )
            seen.add(key)

    def kill_for(self, partition: int, barrier_index: int) -> WorkerKill | None:
        """The scheduled crash for one partition+round, if any."""
        for kill in self.kills:
            if kill.partition == partition and kill.barrier_index == barrier_index:
                return kill
        return None

    def for_partition(self, partition: int) -> "KillPlan":
        """The sub-plan a single worker needs to carry."""
        return KillPlan(
            kills=tuple(k for k in self.kills if k.partition == partition)
        )

    def __len__(self) -> int:
        return len(self.kills)

    @classmethod
    def single(
        cls, partition: int, barrier_index: int, phase: str = KillPhase.BEFORE_ACK
    ) -> "KillPlan":
        """Plan exactly one crash (the common test/CI shape)."""
        return cls(kills=(WorkerKill(partition, barrier_index, phase),))
