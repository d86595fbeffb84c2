"""Runtime guards on the coordinator<->worker protocol and spawn payloads.

Every message crosses a real ``multiprocessing`` pipe.  A peer that sends
something its counterpart does not expect is refused with an error that
names the message, and a partition spec that cannot pickle is refused in
the parent before any worker process starts.
"""

import multiprocessing as mp
import os
import signal
from dataclasses import dataclass, replace

import pytest

from repro.fleet import (
    AdvanceCmd,
    FinishAck,
    FinishCmd,
    FleetConfig,
    FleetCoordinator,
    FleetError,
    Hello,
    PipeEndpoint,
    RoundAck,
    WorkerFailed,
)
from repro.fleet.recovery import recv_expected
from repro.fleet.worker import partition_worker_main, spawn_worker

DEADLINE_S = 30.0


@dataclass(frozen=True)
class Stop:
    """A command no partition worker understands."""


@pytest.fixture
def config():
    return FleetConfig(seed=0, vehicles=2, partitions=1, duration_s=2.0,
                       barrier_deadline_s=DEADLINE_S)


def test_worker_refuses_an_unknown_command_by_name(config):
    parent_conn, child_conn = mp.Pipe(duplex=True)
    coordinator = PipeEndpoint(parent_conn)
    coordinator.send(Stop())
    sigint = signal.getsignal(signal.SIGINT)
    try:
        with pytest.raises(RuntimeError, match=r"unknown command: Stop\(\)"):
            partition_worker_main(child_conn, config.spec_for(0))
    finally:
        signal.signal(signal.SIGINT, sigint)
    assert isinstance(coordinator.recv(DEADLINE_S), Hello)
    failed = coordinator.recv(DEADLINE_S)
    assert isinstance(failed, WorkerFailed)
    assert "unknown command: Stop()" in failed.error
    coordinator.close()


def test_round_ack_wait_refuses_another_message_by_name(config):
    handle = spawn_worker(config.spec_for(0))
    try:
        assert isinstance(handle.pipe.recv(DEADLINE_S), Hello)
        handle.pipe.send(FinishCmd())  # answered with a FinishAck
        with pytest.raises(FleetError,
                           match=r"expected RoundAck, got FinishAck\("):
            recv_expected(handle.pipe, DEADLINE_S, RoundAck)
    finally:
        handle.terminate()


def test_finish_wait_refuses_another_message_by_name(config):
    with FleetCoordinator(config) as coordinator:
        coordinator._spawn_all()
        # The round's RoundAck, unread, is the next message.
        pipe = coordinator.workers[0].pipe
        pipe.send(AdvanceCmd(0, config.barriers()[0]))
        with pytest.raises(FleetError,
                           match=r"expected FinishAck, got RoundAck\("):
            recv_expected(pipe, DEADLINE_S, FinishAck)


def _closure_payload():
    offset = 1

    def callback(partition, round_index):
        return partition + round_index + offset

    return callback


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("payload, type_name", [
    (_closure_payload, "function"),
    (lambda: (lambda partition, round_index: None), "function"),
    (lambda: open(os.devnull, encoding="utf-8"), "TextIOWrapper"),
], ids=["callable-field", "lambda", "open-handle"])
def test_unpicklable_spec_fails_in_the_parent(config, start_method, payload,
                                              type_name):
    value = payload()
    spec = replace(config.spec_for(0), kill_plan=value)
    children = mp.active_children()
    try:
        with pytest.raises(TypeError,
                           match=rf"kill_plan \({type_name}\) cannot cross"):
            spawn_worker(spec, start_method=start_method)
    finally:
        if hasattr(value, "close"):
            value.close()
    assert mp.active_children() == children
