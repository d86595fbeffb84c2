"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


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


def test_settle_with_no_waiter_processes_the_event_in_place():
    sim = Simulator()
    evt = sim.event().settle("done")
    assert evt.processed and evt.value == "done"
    assert sim.peek() == float("inf")
    seen = []

    def late(sim):
        yield sim.timeout(2.0)
        seen.append((sim.now, (yield evt)))

    sim.process(late(sim))
    sim.run()
    assert seen == [(2.0, "done")]
    with pytest.raises(SimulationError):
        evt.settle("again")


def test_settle_with_a_waiter_is_succeed():
    sim = Simulator()
    evt = sim.event()
    seen = []

    def waiter(sim):
        seen.append((yield evt))

    sim.process(waiter(sim))
    sim.run()
    evt.settle("later")
    assert evt.triggered and not evt.processed
    sim.run()
    assert seen == ["later"]


def test_event_classes_are_slotted():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(0.0)

    for evt in (sim.event(), sim.timeout(1.0), sim.process(body(sim), name="p"),
                sim.all_of([]), sim.race(sim.event()), Resource(sim).request()):
        assert not hasattr(evt, "__dict__"), type(evt).__name__
    assert sim.process(body(sim), name="q")._label == "Process|q\n"


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 123

    proc = sim.process(bad(sim))
    sim.run()
    assert proc.triggered
    with pytest.raises(SimulationError, match="yielded non-event"):
        _ = proc.value


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
    sim.run()
    assert cond.value == {}


def test_all_of_children_processed_at_construction():
    sim = Simulator()
    done = [sim.timeout(1.0, value="a"), sim.timeout(2.0, value="b")]
    sim.run()
    cond = sim.all_of(done)
    assert cond.triggered
    mixed = sim.all_of([done[1], sim.timeout(1.0, value="c")])
    assert not mixed.triggered
    sim.run()
    assert cond.value == {0: "a", 1: "b"}
    assert mixed.value == {0: "b", 1: "c"}


def test_all_of_counts_a_repeated_child_once():
    sim = Simulator()
    twice = sim.timeout(2.0, value="x")
    other = sim.timeout(1.0, value="y")
    cond = sim.all_of([twice, other, twice])
    # One callback for the repeated child, one for the other.
    assert twice.callbacks == [cond._on_child]
    sim.run()
    assert cond.value == {0: "x", 1: "y", 2: "x"}


def test_all_of_fails_on_first_child_failure_while_others_pend():
    sim = Simulator()
    failing = sim.event()
    slow = sim.timeout(5.0, value="late")
    cond = sim.all_of([slow, failing])
    seen = []

    def waiter(sim):
        try:
            yield cond
        except ValueError as err:
            seen.append((sim.now, str(err)))

    def breaker(sim):
        yield sim.timeout(1.0)
        failing.fail(ValueError("boom"))

    sim.process(waiter(sim))
    sim.process(breaker(sim))
    sim.run()
    assert seen == [(1.0, "boom")]
    assert slow.processed
    with pytest.raises(ValueError, match="boom"):
        _ = cond.value


def test_all_of_fails_on_a_child_that_failed_before_construction():
    sim = Simulator()
    failed = sim.event().fail(KeyError("gone"))
    sim.run()
    cond = sim.all_of([sim.timeout(1.0), failed])
    assert cond.triggered
    with pytest.raises(KeyError, match="gone"):
        _ = cond.value


class _RescanAllOf:
    """The rescanning AllOf the kernel replaced, as a test oracle: it
    checks every child on every callback and builds its result from the
    processed, ok children."""

    def __init__(self, sim, events):
        self.events = list(events)
        self.result = None
        self.fired_at = None
        self.sim = sim
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)
        self._on_child(None)

    def _on_child(self, _event):
        if self.result is None and all(
            e.processed and e._exception is None for e in self.events
        ):
            self.result = {
                i: e._value for i, e in enumerate(self.events)
                if e.processed and e._exception is None
            }
            self.fired_at = self.sim.now


@pytest.mark.parametrize("picks", [
    (0, 1, 2, 3),
    (3, 3, 1),
    (4, 0, 4, 2, 4),
    (1,),
    (2, 4, 0, 0, 1, 3),
])
def test_all_of_result_matches_the_rescanning_definition(picks):
    sim = Simulator()
    pool = [sim.timeout(float(d), value=f"v{d}") for d in (3, 1, 4, 1, 5)]
    early = sim.timeout(0.5, value="early")
    sim.run(until=0.75)
    events = [pool[i] for i in picks] + [early]
    cond = sim.all_of(events)
    oracle = _RescanAllOf(sim, events)
    fired = []
    cond.callbacks.append(lambda evt: fired.append(sim.now))
    sim.run()
    assert cond.value == oracle.result
    assert fired == [oracle.fired_at]


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


def test_each_resume_fires_one_unnamed_event_entry():
    """A process's start and its resumption on an already-processed event
    (with a value or an exception) each fire exactly one queue entry,
    traced as an unnamed ``Event``."""
    sim = Simulator()
    done = sim.event().succeed("early")
    failed = sim.event().fail(KeyError("gone"))
    sim.run()
    trace = sim.attach_trace(keep=True)
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        seen.append((yield done))
        yield sim.timeout(1.0)
        try:
            yield failed
        except KeyError as err:
            seen.append(err.args[0])
        return "end"

    target = sim.process(proc(sim), name="p")
    sim.run()
    trace.fold()
    times, labels = trace.kept
    assert list(zip(times, labels)) == [
        (0.0, "Event|\n"),  # the start
        (1.0, "Timeout|\n"),
        (1.0, "Event|\n"),  # the resumption on ``done``
        (2.0, "Timeout|\n"),
        (2.0, "Event|\n"),  # the resumption on ``failed``
        (2.0, "Process|p\n"),
    ]
    assert seen == ["early", "gone"]
    assert target.value == "end"
    assert sim.events_fired == 2 + len(times)


@pytest.mark.parametrize("trace", [True, False], ids=["tracing", "metrics-only"])
def test_chunked_runs_record_what_one_run_records(trace):
    """Splitting a schedule over run(until=...) calls (each one a flush)
    records the same metrics as one run() to the end."""
    from repro.obs import Collector

    def schedule(sim):
        def worker(sim, period_s):
            for _ in range(4):
                yield sim.timeout(period_s)

        def joiner(sim):
            yield sim.all_of([sim.process(worker(sim, p), name=f"w@{p}")
                              for p in (0.5, 1.0, 1.0)])
            yield sim.timeout(0.0)

        sim.process(joiner(sim), name="joiner")
        return sim

    run_collector, chunk_collector = Collector(trace=trace), Collector(trace=trace)
    schedule(Simulator(obs=run_collector)).run()
    chunked = schedule(Simulator(obs=chunk_collector))
    for until in (0.0, 0.5, 0.75, 1.0, 2.0, 3.5):
        chunked.run(until=until)
    chunked.run()
    assert chunk_collector.snapshot() == run_collector.snapshot()
    histograms = run_collector.snapshot()["histograms"]
    assert ("sim.queue_depth" in histograms) is trace
