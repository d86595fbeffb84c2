"""The kernel's event trace as the runtime determinism check: same seed
-> same digest, and the first divergent event pinpointed."""

import hashlib
import math
import struct

import pytest

from repro.apps import make_adas_service
from repro.scenario import DriveScenario
from repro.sim import RngRegistry, SimulationError, Simulator
from repro.sim.core import TraceRecord


def _records(trace):
    """Every event a kept trace holds, one TraceRecord each."""
    trace.fold()
    times, labels = trace.kept
    return [TraceRecord(seq, time, *label[:-1].split("|", 1))
            for seq, (time, label) in enumerate(zip(times, labels))]


def _toy_run(seed, jitter=0.0, keep=True):
    sim = Simulator()
    trace = sim.attach_trace(keep=keep)
    stream = RngRegistry(seed).stream("worker")

    def worker(sim):
        for _ in range(5):
            yield sim.timeout(0.5 + float(stream.random()) + jitter)

    def heartbeat(sim):
        for _ in range(3):
            yield sim.timeout(1.0)

    sim.process(worker(sim), name="worker")
    sim.process(heartbeat(sim), name="heartbeat")
    sim.run()
    return trace


def test_same_seed_runs_hash_identically():
    a = _toy_run(seed=11)
    b = _toy_run(seed=11)
    assert a.hexdigest() == b.hexdigest()
    assert _records(a) == _records(b)
    assert a.diff(b) is None


def test_different_seed_changes_the_hash():
    assert _toy_run(seed=11).hexdigest() != _toy_run(seed=12).hexdigest()


def test_diff_pinpoints_first_divergent_event():
    a = _toy_run(seed=11)
    b = _toy_run(seed=11, jitter=0.25)
    assert a.hexdigest() != b.hexdigest()
    divergence = a.diff(b)
    assert divergence is not None
    # Every record before the divergence index is identical.
    assert _records(a)[: divergence.index] == _records(b)[: divergence.index]
    assert divergence.left != divergence.right
    text = divergence.explain()
    assert str(divergence.index) in text
    assert "worker" in text or "Timeout" in text


def test_diff_requires_records_on_both_sides():
    a = _toy_run(seed=11)
    lean = _toy_run(seed=11, keep=False)
    assert lean.kept is None
    assert lean.hexdigest() == a.hexdigest()  # the digest still accumulates
    assert lean.count == a.count > 0
    with pytest.raises(ValueError, match="keep=True"):
        a.diff(lean)


def test_a_simulator_holds_one_trace():
    sim = Simulator()
    trace = sim.attach_trace()
    with pytest.raises(SimulationError, match="already attached"):
        sim.attach_trace()
    sim.timeout(1.0)
    sim.run()
    assert trace.hexdigest() and trace.count == 1


# -- acceptance: the full_drive scenario under a kept trace ------------------


def _drive(rogue_delay=None):
    """A shortened examples/full_drive.py scenario, traced and kept."""
    scenario = DriveScenario(seed=7)
    scenario.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    trace = scenario.sim.attach_trace(keep=True)
    if rogue_delay is not None:
        def rogue(sim):
            yield sim.timeout(rogue_delay)

        scenario.sim.process(rogue(scenario.sim), name="rogue")
    scenario.run(duration_s=30.0)
    return trace


def test_full_drive_same_seed_is_bit_identical():
    a = _drive()
    b = _drive()
    assert a.hexdigest() == b.hexdigest()
    assert a.diff(b) is None
    assert a.count == b.count > 0


def test_full_drive_injected_nondeterminism_is_pinpointed():
    a = _drive(rogue_delay=3.0)
    b = _drive(rogue_delay=3.5)  # simulates a wall-clock-dependent delay
    assert a.hexdigest() != b.hexdigest()
    divergence = a.diff(b)
    assert divergence is not None
    assert _records(a)[: divergence.index] == _records(b)[: divergence.index]
    # The first divergent event is the rogue timeout itself: nothing in
    # the drive differs before t=3.0, so the diff localizes the exact
    # event whose timing changed.
    assert min(divergence.left.time, divergence.right.time) == 3.0


def _documented_digest(records):
    """The trace hash as documented, folded one event at a time."""
    times = hashlib.blake2b(digest_size=16)
    labels = hashlib.blake2b(digest_size=16)
    for r in records:
        times.update(struct.pack("<d", r.time))
        labels.update(f"{r.kind}|{r.name}\n".encode())
    return hashlib.blake2b(times.digest() + labels.digest(), digest_size=16).hexdigest()


@pytest.mark.parametrize("runs", [1, 3, 4096])
def test_buffered_digest_equals_a_per_line_fold(runs):
    """Whatever ``run(until=...)`` calls split the drive into (each one a
    fold, most of 4096 folding nothing), every read equals a fold of one
    ``kind|name`` line and one time per event."""
    sim = Simulator()
    trace = sim.attach_trace(keep=True)
    for k in range(4):
        sim.process(_ticker(sim, 0.3 * (k + 1)), name=f"ticker-{k}")
    horizon = 12.0
    for step in range(1, runs + 1):
        sim.run(until=horizon * step / runs)
        assert trace.hexdigest() == _documented_digest(_records(trace))
    sim.run()
    assert trace.hexdigest() == _documented_digest(_records(trace))
    assert trace.count == len(_records(trace)) > 0


def _ticker(sim, period_s):
    for _ in range(12):
        yield sim.timeout(period_s)


def test_trace_hash_is_the_digest_of_the_documented_lines():
    sim = Simulator()
    trace = sim.attach_trace(keep=True)

    def burst(sim):
        yield sim.all_of([sim.timeout(1.5) for _ in range(20)])

    for k in range(3):  # consecutive distinct times, from t=0.0 on
        sim.process(_ticker(sim, 0.1 * (k + 1)), name=f"ticker-{k}")
    sim.process(burst(sim), name="burst")
    sim.run()
    # An int ``until`` leaves an int clock: a zero-delay timeout then
    # fires at an int time, recorded as the equal float.
    sim.run(until=int(sim.now) + 2)
    sim.timeout(0)
    sim.event().succeed()
    sim.run()
    records = _records(trace)
    times = [r.time for r in records]
    assert times.count(0.0) >= 3 and times.count(1.5) >= 20
    assert {r.kind for r in records} == {"Event", "Timeout", "AllOf", "Process"}
    assert {r.name for r in records if r.kind == "Process"} == {
        "ticker-0", "ticker-1", "ticker-2", "burst",
    }
    assert trace.hexdigest() == _documented_digest(records)


def _schedule(order, names=("a", "b"), delays=(1.0, 1.0)):
    """The trace hash of two processes that finish at ``delays``,
    started in ``order``."""
    sim = Simulator()
    trace = sim.attach_trace()

    def sleeper(sim, delay):
        yield sim.timeout(delay)

    for i in order:
        sim.process(sleeper(sim, delays[i]), name=names[i])
    sim.run()
    return trace.hexdigest()


def test_swapping_two_same_time_events_changes_the_hash():
    assert _schedule((0, 1)) == _schedule((0, 1))
    assert _schedule((0, 1)) != _schedule((1, 0))


def test_renaming_one_process_changes_the_hash():
    assert _schedule((0, 1)) != _schedule((0, 1), names=("a", "c"))


def test_moving_one_fire_time_by_one_ulp_changes_the_hash():
    nudged = (1.0, math.nextafter(1.0, 2.0))
    assert _schedule((0, 1)) != _schedule((0, 1), delays=nudged)


def test_hash_is_independent_of_fold_cadence():
    """One run(), one run(until=...) per fire time, uneven chunks and a
    run long enough to fold inside the loop all hash alike."""

    def build(keep):
        sim = Simulator()
        trace = sim.attach_trace(keep=keep)
        for k in range(3):
            sim.process(_ticker(sim, 0.25 * (k + 1)), name=f"ticker-{k}")
        for i in range(5000):  # > 4096 events at one time: an in-loop fold
            sim.timeout(2.0)
        return sim, trace

    sim, whole = build(keep=False)
    sim.run()
    expected = whole.hexdigest()

    sim, per_time = build(keep=True)
    while sim.peek() != float("inf"):
        sim.run(until=sim.peek())
    assert per_time.hexdigest() == expected
    assert per_time.count == whole.count

    sim, chunked = build(keep=False)
    for until in (0.0, 0.3, 1.99, 2.0, 2.5, 7.0):
        sim.run(until=until)
        chunked.hexdigest()  # a read mid-drive changes nothing
    sim.run()
    assert chunked.hexdigest() == expected
