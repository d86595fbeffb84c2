"""DeterminismSanitizer: same seed -> same trace, divergence pinpointed."""

import hashlib
import math
import struct

import pytest

from repro.apps import make_adas_service
from repro.scenario import DriveScenario
from repro.sim import RngRegistry, SimulationError, Simulator
from repro.sim.sanitizer import DeterminismSanitizer


def _toy_run(seed, jitter=0.0, keep_records=True):
    sim = Simulator()
    sanitizer = DeterminismSanitizer(sim, keep_records=keep_records)
    registry = sanitizer.watch_rng(RngRegistry(seed))
    stream = registry.stream("worker")

    def worker(sim):
        for _ in range(5):
            yield sim.timeout(0.5 + float(stream.random()) + jitter)

    def heartbeat(sim):
        for _ in range(3):
            yield sim.timeout(1.0)

    sim.process(worker(sim), name="worker")
    sim.process(heartbeat(sim), name="heartbeat")
    sim.run()
    return sanitizer


def test_same_seed_runs_hash_identically():
    a = _toy_run(seed=11)
    b = _toy_run(seed=11)
    assert a.trace_hash == b.trace_hash
    assert a.records == b.records
    assert a.diff(b) is None
    assert a.draw_counts() == b.draw_counts()
    assert a.draw_counts()["worker"] == 5
    assert a.rng_counts[("worker", "random")] == 5


def test_different_seed_changes_the_hash():
    assert _toy_run(seed=11).trace_hash != _toy_run(seed=12).trace_hash


def test_diff_pinpoints_first_divergent_event():
    a = _toy_run(seed=11)
    b = _toy_run(seed=11, jitter=0.25)
    assert a.trace_hash != b.trace_hash
    divergence = a.diff(b)
    assert divergence is not None
    # Every record before the divergence index is identical.
    assert a.records[: divergence.index] == b.records[: divergence.index]
    assert divergence.left != divergence.right
    text = divergence.explain()
    assert str(divergence.index) in text
    assert "worker" in text or "Timeout" in text


def test_diff_requires_records_on_both_sides():
    a = _toy_run(seed=11)
    lean = _toy_run(seed=11, keep_records=False)
    assert lean.records == []
    assert lean.trace_hash == a.trace_hash  # hash still accumulates
    try:
        a.diff(lean)
    except ValueError:
        pass
    else:
        raise AssertionError("diff without records should raise")


def test_detach_restores_the_simulator():
    sim = Simulator()
    sanitizer = DeterminismSanitizer(sim)
    assert sim._trace is sanitizer.trace
    with pytest.raises(SimulationError):
        DeterminismSanitizer(sim)  # one trace per simulator
    sanitizer.detach()
    assert sim._trace is None


def test_context_manager_detaches():
    sim = Simulator()
    with DeterminismSanitizer(sim) as sanitizer:
        def worker(sim):
            yield sim.timeout(1.0)

        sim.process(worker(sim))
        sim.run()
    assert sim._trace is None
    assert sanitizer.event_count > 0


# -- acceptance: the full_drive scenario under the sanitizer -----------------


def _drive(rogue_delay=None):
    """A shortened examples/full_drive.py scenario with the sanitizer on."""
    scenario = DriveScenario(seed=7)
    scenario.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    sanitizer = DeterminismSanitizer(scenario.sim)
    if rogue_delay is not None:
        def rogue(sim):
            yield sim.timeout(rogue_delay)

        scenario.sim.process(rogue(scenario.sim), name="rogue")
    scenario.run(duration_s=30.0)
    return sanitizer


def test_full_drive_same_seed_is_bit_identical():
    a = _drive()
    b = _drive()
    assert a.trace_hash == b.trace_hash
    assert a.diff(b) is None
    assert a.event_count == b.event_count > 0


def test_full_drive_injected_nondeterminism_is_pinpointed():
    a = _drive(rogue_delay=3.0)
    b = _drive(rogue_delay=3.5)  # simulates a wall-clock-dependent delay
    assert a.trace_hash != b.trace_hash
    divergence = a.diff(b)
    assert divergence is not None
    assert a.records[: divergence.index] == b.records[: divergence.index]
    # The first divergent event is the rogue timeout itself: nothing in
    # the drive differs before t=3.0, so the sanitizer localizes the
    # exact event whose timing changed.
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
    sanitizer = DeterminismSanitizer(sim)
    for k in range(4):
        sim.process(_ticker(sim, 0.3 * (k + 1)), name=f"ticker-{k}")
    horizon = 12.0
    for step in range(1, runs + 1):
        sim.run(until=horizon * step / runs)
        assert sanitizer.trace_hash == _documented_digest(sanitizer.records)
    sim.run()
    assert sanitizer.summary()["trace_hash"] == _documented_digest(sanitizer.records)
    assert sanitizer.event_count == len(sanitizer.records) > 0


def _ticker(sim, period_s):
    for _ in range(12):
        yield sim.timeout(period_s)


def test_trace_hash_is_the_digest_of_the_documented_lines():
    sim = Simulator()
    sanitizer = DeterminismSanitizer(sim, keep_records=True)

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
    records = sanitizer.records
    times = [r.time for r in records]
    assert times.count(0.0) >= 3 and times.count(1.5) >= 20
    assert {r.kind for r in records} == {"Event", "Timeout", "AllOf", "Process"}
    assert {r.name for r in records if r.kind == "Process"} == {
        "ticker-0", "ticker-1", "ticker-2", "burst",
    }
    assert sanitizer.trace_hash == _documented_digest(records)


def _schedule(order, names=("a", "b"), delays=(1.0, 1.0)):
    """The trace hash of two processes that finish at ``delays``,
    started in ``order``."""
    sim = Simulator()
    sanitizer = DeterminismSanitizer(sim, keep_records=False)

    def sleeper(sim, delay):
        yield sim.timeout(delay)

    for i in order:
        sim.process(sleeper(sim, delays[i]), name=names[i])
    sim.run()
    return sanitizer.trace_hash


def test_swapping_two_same_time_events_changes_the_hash():
    assert _schedule((0, 1)) == _schedule((0, 1))
    assert _schedule((0, 1)) != _schedule((1, 0))


def test_renaming_one_process_changes_the_hash():
    assert _schedule((0, 1)) != _schedule((0, 1), names=("a", "c"))


def test_moving_one_fire_time_by_one_ulp_changes_the_hash():
    nudged = (1.0, math.nextafter(1.0, 2.0))
    assert _schedule((0, 1)) != _schedule((0, 1), delays=nudged)


def test_hash_is_independent_of_fold_cadence():
    """One run(), per-event step()s, uneven run(until=...) chunks and a
    run long enough to fold inside the loop all hash alike."""

    def build(keep):
        sim = Simulator()
        sanitizer = DeterminismSanitizer(sim, keep_records=keep)
        for k in range(3):
            sim.process(_ticker(sim, 0.25 * (k + 1)), name=f"ticker-{k}")
        for i in range(5000):  # > 4096 events at one time: an in-loop fold
            sim.timeout(2.0)
        return sim, sanitizer

    sim, whole = build(keep=False)
    sim.run()
    expected = whole.trace_hash

    sim, stepped = build(keep=True)
    while sim.peek() != float("inf"):
        sim.step()
    assert stepped.trace_hash == expected
    assert stepped.event_count == whole.event_count

    sim, chunked = build(keep=False)
    for until in (0.0, 0.3, 1.99, 2.0, 2.5, 7.0):
        sim.run(until=until)
        chunked.trace_hash  # a read mid-drive changes nothing
    sim.run()
    assert chunked.trace_hash == expected
