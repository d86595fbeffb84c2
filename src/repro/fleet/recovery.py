"""Crash recovery: respawn a partition from seed and replay its journal.

A dead worker takes its whole in-flight simulation with it -- generator
processes are not picklable, so there is no state snapshot to restore.
What *is* recoverable is the run itself: partitions are deterministic
functions of (spec, inbound batches), and the coordinator journals every
inbound batch it ever sent.  :func:`respawn_and_replay` therefore

1. spawns a fresh worker from the dead one's spec with the kill plan
   *disarmed* (the crash already happened; replaying it would livelock),
2. re-sends every **committed** round's inbound batch, in order,
3. checks the replayed kernel trace hash against the journalled commit at
   every barrier -- a mismatch is a :class:`~repro.fleet.journal.
   ReplayDivergence`, the loud failure mode for a nondeterministic run,
4. discards the replayed rounds' outbound envelopes (they were already
   routed to the other partitions the first time).

The caller then re-issues the round that never committed and carries on.
Recovery is bounded by :class:`RecoveryPolicy`: a partition that dies
more than ``max_respawns`` times fails the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

from .config import PartitionSpec
from .journal import PartitionJournal
from .transport import (
    AdvanceCmd,
    Hello,
    PipeEndpoint,
    RoundAck,
    WorkerFailed,
)
from .worker import WorkerHandle, spawn_worker

__all__ = ["FleetError", "RecoveryPolicy", "recv_expected", "respawn_and_replay"]

T = TypeVar("T")


class FleetError(RuntimeError):
    """The fleet cannot make progress (protocol breach, respawn budget)."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard the coordinator fights for a partition before giving up.

    A straggler (its ack missing at the wall deadline, its pipe still
    open) gets ``straggler_retries`` extra waits, each ``straggler_backoff`` times
    longer; after that it is killed and handled as a crash.  A partition
    may be respawned at most ``max_respawns`` times over the whole run.
    """

    max_respawns: int = 3
    straggler_retries: int = 1
    straggler_backoff: float = 2.0

    def __post_init__(self):
        if self.max_respawns < 0 or self.straggler_retries < 0:
            raise ValueError("retry budgets must be non-negative")
        if self.straggler_backoff < 1.0:
            raise ValueError("straggler backoff must be >= 1.0")


def recv_expected(pipe: PipeEndpoint, deadline_s: float, kind: type[T]) -> T:
    """Receive the next message from a worker, which must be a ``kind``.

    Raises :class:`FleetError` on a worker-reported failure or on any
    other message type; :class:`WorkerGone` / :class:`BarrierTimeout`
    propagate from the pipe for the caller's recovery logic.
    """
    message = pipe.recv(deadline_s)
    if isinstance(message, WorkerFailed):
        raise FleetError(f"partition {message.partition} failed: {message.error}")
    if not isinstance(message, kind):
        raise FleetError(f"expected {kind.__name__}, got {message!r}")
    return message


def respawn_and_replay(
    spec: PartitionSpec,
    journal: PartitionJournal,
    deadline_s: float,
    previous: WorkerHandle | None = None,
) -> WorkerHandle:
    """Bring a crashed partition back to its last committed barrier.

    Returns a live handle whose simulation state is event-identical to
    the dead worker's at the last commit (proven hash-by-hash against the
    journal).  ``previous`` carries respawn/straggler bookkeeping forward.
    """
    handle = spawn_worker(spec.disarmed())
    if previous is not None:
        handle.respawns = previous.respawns + 1
        handle.stragglers = previous.stragglers
    hello = handle.pipe.recv(deadline_s)
    if not isinstance(hello, Hello):
        handle.terminate()
        raise FleetError(f"respawned worker sent {hello!r}, expected Hello")
    handle.hello = hello
    try:
        for entry in journal.committed_entries():
            handle.pipe.send(
                AdvanceCmd(entry.round_index, entry.barrier_s, entry.inbound)
            )
            ack = recv_expected(handle.pipe, deadline_s, RoundAck)
            if ack.round_index != entry.round_index:
                raise FleetError(
                    f"ack for round {ack.round_index}, "
                    f"expected {entry.round_index}"
                )
            journal.verify_replay(entry.round_index, ack.partition_hash)
            # ack.outbound intentionally dropped: those envelopes were
            # routed to the other partitions before the crash.
    except BaseException:
        handle.terminate()
        raise
    return handle
