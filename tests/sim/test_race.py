"""Tests for the first-wins Race event and the timeout-race helper."""

import pytest

from repro.sim import Simulator, SimulationError


def test_race_identifies_the_winner():
    sim = Simulator()
    seen = {}

    def proc(sim):
        winner, value = yield sim.race(
            sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")
        )
        seen["winner"] = winner
        seen["value"] = value

    sim.process(proc(sim))
    sim.run()
    assert seen == {"winner": 1, "value": "fast"}
    # Exact: the losing timeout still fires (into the void).
    assert sim.now == 5.0  # vdaplint: disable=FLT001


def test_with_timeout_event_wins():
    sim = Simulator()
    seen = {}

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    def proc(sim):
        winner, value = yield sim.race(sim.process(worker(sim)), sim.timeout(10.0))
        seen["winner"], seen["value"] = winner, value

    sim.process(proc(sim))
    sim.run()
    assert seen == {"winner": 0, "value": 42}


def test_with_timeout_deadline_wins():
    sim = Simulator()
    seen = {}

    def worker(sim):
        yield sim.timeout(100.0)
        return "too late"

    def proc(sim):
        winner, value = yield sim.race(sim.process(worker(sim)), sim.timeout(2.0))
        seen["winner"], seen["value"] = winner, value
        seen["at"] = sim.now

    sim.process(proc(sim))
    sim.run()
    assert seen["winner"] == 1
    assert seen["value"] is None
    assert seen["at"] == 2.0


def test_race_with_already_fired_event_resolves_immediately():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # fire the event's callbacks so it is processed
    seen = {}

    def proc(sim):
        winner, value = yield sim.race(done, sim.timeout(50.0))
        seen["winner"], seen["value"], seen["at"] = winner, value, sim.now

    sim.process(proc(sim))
    sim.run()
    assert seen["winner"] == 0
    assert seen["value"] == "early"
    assert seen["at"] == 0.0


def test_race_propagates_failure_of_the_winner():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def proc(sim):
        yield sim.race(sim.process(failing(sim)), sim.timeout(10.0))

    proc_event = sim.process(proc(sim))
    sim.run()
    assert proc_event.triggered
    with pytest.raises(ValueError):
        proc_event.value


def test_race_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.race()


def test_ties_resolve_to_the_first_listed_event():
    sim = Simulator()
    seen = {}

    def proc(sim):
        winner, _ = yield sim.race(sim.timeout(1.0), sim.timeout(1.0))
        seen["winner"] = winner

    sim.process(proc(sim))
    sim.run()
    assert seen["winner"] == 0
