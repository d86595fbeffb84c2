"""DeterminismSanitizer: same seed -> same trace, divergence pinpointed."""

import hashlib

import pytest

from repro.apps import make_adas_service
from repro.scenario import DriveScenario
from repro.sim import RngRegistry, Simulator
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
    assert sim._taps == [sanitizer._record]
    sanitizer.detach()
    assert sim._taps == []


def test_context_manager_detaches():
    sim = Simulator()
    with DeterminismSanitizer(sim) as sanitizer:
        def worker(sim):
            yield sim.timeout(1.0)

        sim.process(worker(sim))
        sim.run()
    assert sim._taps == []
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


@pytest.mark.parametrize("fold_lines", [DeterminismSanitizer.FOLD_LINES, 1, 3])
def test_buffered_digest_equals_a_per_line_fold(monkeypatch, fold_lines):
    monkeypatch.setattr(DeterminismSanitizer, "FOLD_LINES", fold_lines)
    sim = Simulator()
    sanitizer = DeterminismSanitizer(sim)
    for k in range(4):
        sim.process(_ticker(sim, 0.3 * (k + 1)), name=f"ticker-{k}")

    def per_line_fold():
        digest = hashlib.blake2b(digest_size=16)
        for record in sanitizer.records:
            digest.update(
                f"{record.seq}|{record.time!r}|{record.kind}|{record.name}\n"
                .encode()
            )
        return digest.hexdigest()

    reads = []
    for until in (0.0, 0.5, 1.7, 4.0):
        sim.run(until=until)
        reads.append((sanitizer.event_count, sanitizer.trace_hash))
        assert reads[-1][1] == per_line_fold()
    sim.run()
    assert sanitizer.summary()["trace_hash"] == per_line_fold()
    assert sanitizer.event_count > reads[-1][0] > reads[1][0] > 0


def _ticker(sim, period_s):
    for _ in range(12):
        yield sim.timeout(period_s)


def _documented_digest(records):
    digest = hashlib.blake2b(digest_size=16)
    for r in records:
        digest.update(f"{r.seq}|{r.time!r}|{r.kind}|{r.name}\n".encode())
    return digest.hexdigest()


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
    # fires at an int time, and an event succeeded next at the equal
    # float time, so both reprs of one value reach the hash.
    sim.run(until=int(sim.now) + 2)
    sim.timeout(0)
    sim.event().succeed()
    sim.run()
    times = [r.time for r in sanitizer.records]
    assert times.count(0.0) >= 3 and times.count(1.5) >= 20
    assert {type(t) for t in times} == {int, float}
    assert sanitizer.trace_hash == _documented_digest(sanitizer.records)


def test_trace_tap_formats_every_time_it_cannot_reuse():
    class Tapped:
        def add_trace_tap(self, tap):
            self.tap = tap

    class Named:
        name = "e"

    sim = Tapped()
    sanitizer = DeterminismSanitizer(sim, keep_records=True)
    for when in (0.0, -0.0, 0.0, 2.5, 2.5, 2.5, 2, 2.5, 3.0, 3, 3.0,
                 float("nan"), float("nan"), 1e-300, 1e-300, -0.0):
        sim.tap(Named(), when)
    assert sanitizer.trace_hash == _documented_digest(sanitizer.records)
