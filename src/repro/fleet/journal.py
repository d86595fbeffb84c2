"""Per-partition recovery journal: everything needed to replay a worker.

A partition worker is deterministic given (a) its :class:`PartitionSpec`
and (b) the exact sequence of inbound envelope batches it was told to
deliver.  Generators are not picklable, so there is no mid-flight state
snapshot to ship -- instead the coordinator journals (b) as each round is
*sent*, and stamps the worker's kernel trace hash as each round is
*committed* (acked).  Crash recovery is then seed+replay: respawn from
the spec, re-send every committed round's inbound batch, and check the
replayed hash against the journalled one at each barrier.  A hash
mismatch means the run was not deterministic and recovery refuses to
continue (better loud than silently divergent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .transport import Envelope

__all__ = ["JournalEntry", "PartitionJournal", "ReplayDivergence"]


class ReplayDivergence(Exception):
    """A replayed round produced a different trace hash than the original."""


@dataclass
class JournalEntry:
    """One round's replay record for one partition."""

    round_index: int
    barrier_s: float
    inbound: tuple[Envelope, ...]
    committed_hash: str | None = None

    @property
    def committed(self) -> bool:
        return self.committed_hash is not None


@dataclass
class PartitionJournal:
    """Ordered round log for one partition (append-only, commit-stamped)."""

    partition: int
    entries: list[JournalEntry] = field(default_factory=list)

    def record_advance(
        self, round_index: int, barrier_s: float, inbound: tuple[Envelope, ...]
    ) -> JournalEntry:
        """Log a round as it is sent to the worker (idempotent per round).

        Re-sending the same round after a straggler retry or crash keeps
        the original entry; recovery depends on the inbound batch for a
        round never changing once journalled.
        """
        if self.entries and round_index == self.entries[-1].round_index:
            return self.entries[-1]
        expected = self.entries[-1].round_index + 1 if self.entries else 0
        if round_index != expected:
            raise ValueError(
                f"journal for partition {self.partition} expected round "
                f"{expected}, got {round_index}"
            )
        entry = JournalEntry(round_index, barrier_s, inbound)
        self.entries.append(entry)
        return entry

    def commit(self, round_index: int, trace_hash: str) -> None:
        """Stamp a round as acked with the worker's post-barrier hash."""
        entry = self.entries[round_index]
        if entry.round_index != round_index:
            raise ValueError("journal entries out of order")
        if entry.committed and entry.committed_hash != trace_hash:
            raise ReplayDivergence(
                f"partition {self.partition} round {round_index}: commit hash "
                f"{trace_hash} contradicts journalled {entry.committed_hash}"
            )
        entry.committed_hash = trace_hash

    def committed_entries(self) -> list[JournalEntry]:
        """The committed prefix: rounds a replayed worker must reproduce."""
        out = []
        for entry in self.entries:
            if not entry.committed:
                break
            out.append(entry)
        return out

    def verify_replay(self, round_index: int, trace_hash: str) -> None:
        """Check a replayed round's hash against the journalled commit."""
        entry = self.entries[round_index]
        if entry.committed_hash != trace_hash:
            raise ReplayDivergence(
                f"partition {self.partition} round {round_index}: replay hash "
                f"{trace_hash} != journalled {entry.committed_hash} -- "
                f"recovered run is not event-identical"
            )

