"""Kernel fleet hooks: try_interrupt, barrier-aligned runs."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


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


# -- barriers: run(until=barrier) -------------------------------------------

def test_run_to_barrier_pins_clock():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(5.0)
    assert sim.run(until=3.0) == 3.0  # vdaplint: disable=FLT001
    assert sim.now == 3.0  # vdaplint: disable=FLT001
    assert sim.events_fired == 1
    assert sim.peek() == 5.0  # vdaplint: disable=FLT001


def test_run_to_barrier_rejects_the_past():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match="cannot run backwards"):
        sim.run(until=1.0)
    assert sim.now == 2.0  # vdaplint: disable=FLT001


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
        barriered.run(until=barrier)

    assert barrier_acc == solid_acc
    assert barriered.events_fired == solid.events_fired
