"""Property-based tests (hypothesis) for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, RngRegistry, Simulator


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100)
def test_events_fire_in_nondecreasing_time_order(delays):
    """Whatever the schedule, the clock never runs backwards."""
    sim = Simulator()
    fired = []

    def mk(delay):
        def proc(sim):
            yield sim.timeout(delay)
            fired.append(sim.now)

        return proc

    for delay in delays:
        sim.process(mk(delay)(sim))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    # Exact clock equality is the property under test.
    assert sim.now == max(delays)  # vdaplint: disable=FLT001


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30),
       cut=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=100)
def test_run_until_is_a_clean_partition(delays, cut):
    """run(until=t) fires exactly the events with time <= t."""
    sim = Simulator()
    fired = []

    def mk(delay):
        def proc(sim):
            yield sim.timeout(delay)
            fired.append(delay)

        return proc

    for delay in delays:
        sim.process(mk(delay)(sim))
    sim.run(until=cut)
    assert sorted(fired) == sorted(d for d in delays if d <= cut)
    sim.run()
    assert sorted(fired) == sorted(delays)


@given(capacity=st.integers(min_value=1, max_value=8),
       durations=st.lists(st.floats(min_value=0.01, max_value=10.0,
                                    allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60)
def test_resource_never_exceeds_capacity(capacity, durations):
    """Concurrent holders never exceed capacity; everyone eventually runs."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = [0]
    peak = [0]
    done = [0]

    def worker(sim, hold):
        req = res.request()
        yield req
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield sim.timeout(hold)
        active[0] -= 1
        res.release(req)
        done[0] += 1

    for hold in durations:
        sim.process(worker(sim, hold))
    sim.run()
    assert peak[0] <= capacity
    assert done[0] == len(durations)
    assert res.count == 0 and res.queue_length == 0


@given(seed=st.integers(min_value=0, max_value=2**31),
       names=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                      max_size=6, unique=True))
@settings(max_examples=50)
def test_rng_streams_reproducible_regardless_of_creation_order(seed, names):
    """Stream contents depend only on (seed, name), not creation order."""
    forward = RngRegistry(seed)
    backward = RngRegistry(seed)
    draws_fwd = {}
    for name in names:
        draws_fwd[name] = list(forward.stream(name).integers(0, 10**9, 4))
    for name in reversed(names):
        assert list(backward.stream(name).integers(0, 10**9, 4)) == draws_fwd[name]
