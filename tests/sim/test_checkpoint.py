"""Kernel fleet hooks: try_interrupt, checkpoints, barriers."""

import pytest

from repro.sim import (
    Interrupt,
    KernelCheckpoint,
    SimulationError,
    Simulator,
)


def sleeper(sim, delay_s=10.0):
    try:
        yield sim.timeout(delay_s)
        return "finished"
    except Interrupt as interrupt:
        return f"interrupted:{interrupt.cause}"


# -- try_interrupt ----------------------------------------------------------

def test_try_interrupt_delivers_to_live_process():
    sim = Simulator()
    proc = sim.process(sleeper(sim))
    sim.run(until=1.0)
    assert proc.try_interrupt("deadline") is True
    sim.run()
    assert proc.value == "interrupted:deadline"


def test_try_interrupt_is_noop_on_finished_process():
    sim = Simulator()
    proc = sim.process(sleeper(sim, delay_s=1.0))
    sim.run()
    assert proc.value == "finished"
    assert proc.try_interrupt("too late") is False
    assert proc.value == "finished"


def test_plain_interrupt_on_finished_process_still_raises():
    sim = Simulator()
    proc = sim.process(sleeper(sim, delay_s=1.0))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt("too late")


def test_supervisor_racing_natural_completion():
    # The watchdog pattern try_interrupt exists for: a supervisor whose
    # deadline fires in the same round the work completes must not crash.
    sim = Simulator()
    worker = sim.process(sleeper(sim, delay_s=2.0))

    def supervisor(sim):
        yield sim.timeout(2.0)
        delivered = worker.try_interrupt("watchdog")
        return delivered

    sup = sim.process(supervisor(sim))
    sim.run()
    assert worker.value == "finished"
    assert sup.value is False


# -- checkpoints and barriers -----------------------------------------------

def test_checkpoint_reflects_loop_state():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(5.0)
    sim.run(until=2.0)
    checkpoint = sim.checkpoint()
    assert checkpoint == KernelCheckpoint(
        time=2.0, events_fired=1, queue_depth=1, next_event_s=5.0
    )


def test_run_to_barrier_pins_clock_and_returns_checkpoint():
    sim = Simulator()
    sim.timeout(1.0)
    checkpoint = sim.run_to_barrier(3.0)
    assert sim.now == 3.0  # vdaplint: disable=FLT001
    assert checkpoint.time == 3.0
    assert checkpoint.events_fired == 1
    assert checkpoint.next_event_s == float("inf")


def test_run_to_barrier_rejects_the_past():
    sim = Simulator()
    sim.run_to_barrier(2.0)
    with pytest.raises(SimulationError, match="behind the clock"):
        sim.run_to_barrier(1.0)


def test_barrier_sequence_equals_single_run():
    def ticker(sim, acc):
        while sim.now < 10.0:
            yield sim.timeout(1.0)
            acc.append(sim.now)

    solid_acc, barrier_acc = [], []
    solid = Simulator()
    solid.process(ticker(solid, solid_acc))
    solid.run(until=10.0)

    barriered = Simulator()
    barriered.process(ticker(barriered, barrier_acc))
    for barrier in (2.5, 5.0, 7.5, 10.0):
        barriered.run_to_barrier(barrier)

    assert barrier_acc == solid_acc
    assert barriered.events_fired == solid.events_fired
