"""Partition worker: the child-process side of the fleet, plus its handle.

:func:`partition_worker_main` is the child entry point -- a plain loop
over coordinator commands driving one :class:`~repro.fleet.runtime.
PartitionRuntime`.  It is intentionally dumb: all policy (deadlines,
retries, recovery) lives in the coordinator; the worker just advances,
acks, and -- if its :class:`~repro.faults.prockill.KillPlan` says so --
SIGKILLs itself at the scheduled barrier, exactly as an OOM-killed or
crashed container would (no cleanup, no farewell; the pipe goes EOF).

:class:`WorkerHandle` is the parent-side view: the OS process, the pipe
endpoint, and respawn bookkeeping.  :func:`spawn_worker` prefers the
``fork`` start method (cheap); it refuses a spec that does not pickle,
so the ``spawn`` fallback receives the same specs.
"""

from __future__ import annotations

import os
import pickle
import signal
import time  # vdaplint: disable=DET001
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..faults.prockill import KillPhase
from .config import PartitionSpec
from .transport import (
    AdvanceCmd,
    FinishCmd,
    Heartbeat,
    Hello,
    PipeEndpoint,
    WorkerFailed,
    WorkerGone,
)

if TYPE_CHECKING:
    import multiprocessing as mp

__all__ = ["WorkerHandle", "partition_worker_main", "spawn_worker"]


def _self_destruct() -> None:
    """Die the way a crashed worker dies: SIGKILL, no cleanup, no goodbye."""
    os.kill(os.getpid(), signal.SIGKILL)


def partition_worker_main(conn, spec: PartitionSpec) -> None:
    """Child entry point: run one partition under coordinator command."""
    # Workers must not share the parent's signal disposition for Ctrl-C:
    # the coordinator owns shutdown and terminates children explicitly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pipe = PipeEndpoint(conn)
    try:
        from .runtime import PartitionRuntime, frozen_heap

        runtime = PartitionRuntime(spec)
        runtime.launch()
        pipe.send(
            Hello(
                partition=spec.partition,
                vehicles=spec.vehicle_indices,
                pid=os.getpid(),
            )
        )
        with frozen_heap():
            while True:
                try:
                    command = pipe.recv_blocking()
                except WorkerGone:
                    return  # coordinator went away; nothing left to serve
                if isinstance(command, AdvanceCmd):
                    pipe.send(Heartbeat(spec.partition, command.round_index))
                    kill = (
                        spec.kill_plan.kill_for(spec.partition, command.round_index)
                        if spec.kill_plan is not None
                        else None
                    )
                    if kill is not None and kill.phase == KillPhase.ON_ADVANCE:
                        _self_destruct()
                    stall_s = spec.straggle_for(command.round_index)
                    if stall_s > 0:
                        time.sleep(stall_s)  # vdaplint: disable=DET001,SIM001
                    started = time.perf_counter()  # vdaplint: disable=DET001
                    result = runtime.advance(
                        command.round_index, command.barrier_s, command.inbound
                    )
                    advance_wall_s = time.perf_counter() - started  # vdaplint: disable=DET001
                    if kill is not None and kill.phase == KillPhase.BEFORE_ACK:
                        _self_destruct()
                    pipe.send(result.to_ack(advance_wall_s=advance_wall_s))
                elif isinstance(command, FinishCmd):
                    pipe.send(runtime.finish())
                    return
                else:
                    raise RuntimeError(f"unknown command: {command!r}")
    except Exception as exc:  # noqa: BLE001 - report, then die loudly
        try:
            pipe.send(WorkerFailed(partition=spec.partition, error=repr(exc)))
        except WorkerGone:
            pass
        raise
    finally:
        pipe.close()


@dataclass
class WorkerHandle:
    """Parent-side handle on one partition worker."""

    spec: PartitionSpec
    process: mp.Process
    pipe: PipeEndpoint
    respawns: int = 0
    stragglers: int = 0
    hello: Hello | None = field(default=None, repr=False)

    @property
    def partition(self) -> int:
        return self.spec.partition

    def terminate(self, join_s: float = 5.0) -> None:
        """Hard-stop the worker and reap it (idempotent; never raises)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=join_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=join_s)
        self.pipe.close()


def _context(start_method: str | None) -> mp.context.BaseContext:
    import multiprocessing as mp

    if start_method is None:
        start_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
    return mp.get_context(start_method)


def _require_picklable(spec: PartitionSpec) -> None:
    """Refuse a spec that could not reach a ``spawn``-started worker.

    ``fork`` would hand it over without pickling, so the check runs for
    every start method: a spec works everywhere or nowhere.
    """
    for item in fields(spec):
        value = getattr(spec, item.name)
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise TypeError(
                f"partition {spec.partition} spec does not pickle: "
                f"{item.name} ({type(value).__name__}) cannot cross to a "
                f"worker process ({exc})"
            ) from exc


def spawn_worker(
    spec: PartitionSpec, start_method: str | None = None
) -> WorkerHandle:
    """Start one partition worker process and return its handle.

    Raises :class:`TypeError`, before any process starts, if ``spec``
    does not pickle.  The caller still has to receive the worker's
    :class:`Hello` (build failures surface as :class:`WorkerGone` on that
    first receive).
    """
    _require_picklable(spec)
    ctx = _context(start_method)
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=partition_worker_main,
        args=(child_conn, spec),
        name=f"fleet-p{spec.partition}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return WorkerHandle(spec=spec, process=process, pipe=PipeEndpoint(parent_conn))
