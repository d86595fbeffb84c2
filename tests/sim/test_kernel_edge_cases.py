"""Additional kernel edge cases: failures in composites, priorities, timing."""

import pytest

from repro.hw import WorkloadClass, catalog
from repro.offload import Task, TaskGraph
from repro.sim import SimulationError, Simulator
from repro.vcu import DSF, MHEP


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    bad = sim.event()
    never = sim.event()
    caught_at = []

    def proc(sim):
        try:
            yield sim.all_of([bad, never])
        except RuntimeError:
            caught_at.append(sim.now)

    sim.process(proc(sim))

    def failer(sim):
        yield sim.timeout(2.0)
        bad.fail(RuntimeError("nope"))

    sim.process(failer(sim))
    sim.run()
    assert caught_at == [2.0]


def test_run_until_fires_events_exactly_at_boundary():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert fired == [5.0]


def test_yielding_a_non_event_fails_the_process():
    """A process must yield kernel events: a bare value or a bare ``yield``
    fails it with SimulationError at the offending step."""
    sim = Simulator()

    def sampler(sim, period_s):
        while sim.now < 10.0:
            yield sim.timeout(period_s)
            yield period_s * 2.0

    def beacon(sim):
        yield sim.timeout(1.0)
        yield

    procs = [sim.process(sampler(sim, 0.5)), sim.process(beacon(sim))]
    sim.run()
    assert sim.now == 1.0  # vdaplint: disable=FLT001
    for proc in procs:
        assert proc.processed
        with pytest.raises(SimulationError, match="yielded non-event"):
            _ = proc.value


def test_zero_delay_timeout_fires_at_current_time():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [1.0]


def test_process_value_before_completion_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        return "done"

    p = sim.process(proc(sim))
    with pytest.raises(SimulationError):
        _ = p.value
    sim.run()
    assert p.value == "done"


def test_running_is_true_only_while_events_fire():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.running)
        yield sim.timeout(1.0)
        seen.append(sim.running)

    def boom(_event):
        raise RuntimeError("boom")

    sim.process(proc(sim))
    assert not sim.running
    sim.run(until=0.0)
    assert not sim.running
    sim.run(until=2.0)
    assert seen == [True, True]
    assert not sim.running
    sim.timeout(1.0).callbacks.append(boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert not sim.running


def test_dsf_priority_jumps_device_queue():
    """A safety-critical job submitted later overtakes queued background
    jobs on the contended device."""
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp())  # single DNN device
    dsf = DSF(sim, mhep)

    def job(name):
        return TaskGraph.chain(name, [Task(f"{name}-t", 99.75, WorkloadClass.DNN)])

    running = dsf.submit(job("running"), priority=3)
    queued_bg = dsf.submit(job("background"), priority=3)
    critical = dsf.submit(job("critical"), priority=0)
    sim.run()
    assert critical.value.finished_at < queued_bg.value.finished_at
    assert running.value.finished_at <= critical.value.finished_at
