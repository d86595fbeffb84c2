"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    # The kernel promises an exact 0.0 start; epsilon would weaken the test.
    assert Simulator().now == 0.0  # vdaplint: disable=FLT001


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    assert sim.run() == 5.0


def test_run_until_advances_clock_past_last_event():
    sim = Simulator()
    sim.timeout(1.0)
    assert sim.run(until=10.0) == 10.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=2.0)
    assert fired == []
    sim.run(until=10.0)
    assert fired == [5.0]


def test_run_backwards_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_negative_timeout_raises():
    # NaN fails every comparison, so it must not slip past a `< 0` check.
    sim = Simulator()
    for delay_s in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.timeout(delay_s)


def test_process_sequencing_and_return_value():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(2.0)
        log.append(("child", sim.now))
        return 42

    def parent(sim):
        log.append(("parent-start", sim.now))
        result = yield sim.process(child(sim))
        log.append(("parent-resume", sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [
        ("parent-start", 0.0),
        ("child", 2.0),
        ("parent-resume", 2.0, 42),
    ]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def mk(tag):
        def proc(sim):
            yield sim.timeout(1.0)
            order.append(tag)

        return proc

    for tag in "abcde":
        sim.process(mk(tag)(sim))
    sim.run()
    assert order == list("abcde")


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter(sim):
        value = yield gate
        seen.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert seen == [(3.0, "open")]


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield gate
        except ValueError as err:
            caught.append(str(err))

    sim.process(waiter(sim))
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("broken")

    def joiner(sim):
        with pytest.raises(KeyError):
            yield sim.process(bad(sim))

    sim.process(joiner(sim))
    sim.run()


def test_yield_already_triggered_event_resumes_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("early")
    seen = []

    def proc(sim):
        value = yield evt
        seen.append((sim.now, value))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(0.0, "early")]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 123

    proc = sim.process(bad(sim))
    sim.run()
    assert proc.triggered and not proc.ok


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    target = sim.process(sleeper(sim))
    sim.process(interrupter(sim, target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    target = sim.process(sleeper(sim))

    def interrupter(sim):
        yield sim.timeout(5.0)
        target.interrupt()

    sim.process(interrupter(sim))
    sim.run()
    assert log == [6.0]


def test_any_of_fires_on_first():
    sim = Simulator()
    seen = []

    def proc(sim):
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        results = yield sim.any_of([t1, t2])
        seen.append((sim.now, results))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(2.0, {1: "fast"})]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    seen = []

    def proc(sim):
        t1 = sim.timeout(5.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        results = yield sim.all_of([t1, t2])
        seen.append((sim.now, results))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(5.0, {0: "a", 1: "b"})]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    cond = sim.all_of([])
    assert cond.triggered


def test_stop_halts_run():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(1.0)
        fired.append(1)
        sim.stop()
        yield sim.timeout(1.0)
        fired.append(2)

    sim.process(proc(sim))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_step_processes_single_event():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.step() == 1.0
    assert sim.peek() == 2.0


def test_step_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_peek_empty_queue_is_infinite():
    assert Simulator().peek() == float("inf")


def test_nested_processes_three_deep():
    sim = Simulator()

    def level3(sim):
        yield sim.timeout(1.0)
        return 3

    def level2(sim):
        value = yield sim.process(level3(sim))
        return value + 10

    def level1(sim):
        value = yield sim.process(level2(sim))
        return value + 100

    proc = sim.process(level1(sim))
    sim.run()
    assert proc.value == 113
