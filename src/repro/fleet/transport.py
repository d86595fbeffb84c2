"""Wire protocol between the fleet coordinator and partition workers.

Everything that crosses the process boundary is defined here as a small
picklable dataclass, so the protocol is explicit and testable without
spawning anything.  The flow per time-sync round:

1. coordinator -> worker: :class:`AdvanceCmd` (target barrier + the
   inbound :class:`Envelope` batch this partition must deliver),
2. worker -> coordinator: :class:`RoundAck` (outbound envelopes produced
   during the round and the kernel trace hash after the barrier; the
   per-vehicle domain hashes travel once, in the :class:`FinishAck`).

A worker that crashes mid-round simply never acks -- the pipe goes EOF or
the wall-clock deadline lapses, which :class:`PipeEndpoint.recv` converts
into :class:`WorkerGone` / :class:`BarrierTimeout` for the coordinator's
recovery machinery to classify.

Wall-clock time appears *only* here (deadline arithmetic on OS pipes);
simulation code stays on the virtual clock.
"""

from __future__ import annotations

import time  # vdaplint: disable=DET001
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "AdvanceCmd",
    "BarrierTimeout",
    "Envelope",
    "FinishAck",
    "FinishCmd",
    "Hello",
    "PipeEndpoint",
    "RoundAck",
    "WorkerFailed",
    "WorkerGone",
    "sort_envelopes",
]


class WorkerGone(Exception):
    """The worker's pipe closed without a reply (process died)."""


class BarrierTimeout(Exception):
    """The worker missed its wall-clock barrier deadline (straggler)."""


@dataclass(frozen=True)
class Envelope:
    """One cross-vehicle message in flight between partitions.

    ``sent_s`` is the sim time the source emitted it; ``deliver_s`` is the
    sim time it is due (``sent_s + link latency``).  Conservative sync
    guarantees ``deliver_s`` falls strictly after the barrier that ships
    the envelope, so delivery is always scheduled in the future.
    """

    src: int
    dst: int
    sent_s: float
    deliver_s: float
    seq: int
    payload: Any

    @property
    def sort_key(self) -> tuple[float, int, int, int]:
        """Canonical delivery order: (due time, receiver, sender, seq)."""
        return (self.deliver_s, self.dst, self.src, self.seq)


def sort_envelopes(envelopes: list[Envelope]) -> list[Envelope]:
    """Canonical, partition-invariant ordering for a delivery batch."""
    return sorted(envelopes, key=lambda e: e.sort_key)


@dataclass(frozen=True)
class Hello:
    """Worker's first message: it booted and built its partition."""

    partition: int
    vehicles: tuple[int, ...]
    pid: int


@dataclass(frozen=True)
class AdvanceCmd:
    """Coordinator order: deliver ``inbound`` then simulate to ``barrier_s``."""

    round_index: int
    barrier_s: float
    inbound: tuple[Envelope, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class RoundAck:
    """Worker reply: the round committed on its side.

    ``partition_hash`` is the kernel event-trace hash after this barrier
    (replay-identity evidence).  Per-vehicle hashes and event counts
    travel once, in the :class:`FinishAck`.
    """

    round_index: int
    barrier_s: float
    outbound: tuple[Envelope, ...]
    partition_hash: str
    #: Wall-clock seconds the partition spent inside ``advance`` this
    #: round (diagnostic only -- never hashed, so plans stay
    #: trace-invariant).
    advance_wall_s: float = 0.0


@dataclass(frozen=True)
class FinishCmd:
    """Coordinator order: the final barrier committed; report and exit."""


@dataclass(frozen=True)
class FinishAck:
    """Worker's final report: hashes, metrics snapshot, scenario summaries."""

    partition: int
    partition_hash: str
    vehicle_hashes: dict[int, str]
    events_fired: int
    metrics: dict[str, Any]
    vehicle_reports: dict[int, dict[str, Any]]


@dataclass(frozen=True)
class WorkerFailed:
    """Worker caught an exception and is shutting down (clean failure path)."""

    partition: int
    error: str


class PipeEndpoint:
    """One end of a coordinator<->worker duplex pipe with deadline recv.

    Wraps :class:`multiprocessing.connection.Connection` so that every
    receive is bounded by a wall-clock deadline and every failure mode is
    a typed exception the recovery layer can branch on.
    """

    def __init__(self, conn: Connection):
        self._conn = conn

    def send(self, message: Any) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerGone(f"pipe closed while sending: {exc}") from exc

    def recv(self, deadline_s: float) -> Any:
        """Receive one message within ``deadline_s`` wall seconds.

        Raises :class:`BarrierTimeout` if the deadline lapses with the
        peer still alive, :class:`WorkerGone` if the pipe hits EOF.
        """
        deadline = time.monotonic() + deadline_s  # vdaplint: disable=DET001
        while True:
            remaining = deadline - time.monotonic()  # vdaplint: disable=DET001
            if remaining <= 0:
                raise BarrierTimeout(
                    f"no message within {deadline_s:.3f}s wall deadline"
                )
            try:
                if self._conn.poll(min(remaining, 0.05)):
                    return self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerGone(f"pipe closed: {exc}") from exc

    def recv_blocking(self) -> Any:
        """Receive with no deadline (worker side: the coordinator paces us)."""
        try:
            return self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerGone(f"pipe closed: {exc}") from exc

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
