"""Kernel fleet hooks: barrier-aligned runs."""

import pytest

from repro.sim import SimulationError, Simulator


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
