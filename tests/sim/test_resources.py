"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


def test_resource_capacity_validation():
    with pytest.raises(SimulationError):
        Resource(Simulator(), capacity=0)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    sim.run()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queue_length == 1


def test_resource_release_grants_next_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    sim.run()
    assert not r2.triggered
    res.release(r1)
    sim.run()
    assert r2.triggered


def test_resource_priority_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    low = res.request(priority=5)
    high = res.request(priority=1)
    sim.run()
    res.release(holder)
    sim.run()
    assert high.triggered and not low.triggered


def test_resource_fifo_within_same_priority():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    first = res.request(priority=3)
    second = res.request(priority=3)
    res.release(holder)
    sim.run()
    assert first.triggered and not second.triggered


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    queued = res.request()
    res.release(queued)  # cancel before grant
    res.release(holder)
    sim.run()
    assert res.count == 0 and res.queue_length == 0


def test_resource_usage_pattern_in_processes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(sim, tag):
        req = res.request()
        yield req
        start = sim.now
        yield sim.timeout(2.0)
        res.release(req)
        spans.append((tag, start, sim.now))

    sim.process(worker(sim, "a"))
    sim.process(worker(sim, "b"))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]


def test_resource_double_release_is_a_noop():
    """Releasing the same token twice raises and frees no second slot."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    waiter_a = res.request()
    waiter_b = res.request()
    sim.run()
    res.release(holder)
    with pytest.raises(SimulationError,
                       match=r"neither held nor queued \(count=1, capacity=1\)"):
        res.release(holder)
    sim.run()
    assert waiter_a.triggered and not waiter_b.triggered
    assert res.count == 1 and res.queue_length == 1


def test_process_releasing_its_grant_twice_fails():
    """The second release after a try/finally hand-back fails the process;
    the slot is free exactly once."""
    sim = Simulator()
    charger = Resource(sim, capacity=1)

    def cycle(sim, charger, dwell_s):
        grant = charger.request()
        try:
            yield grant
            yield sim.timeout(dwell_s)
        finally:
            charger.release(grant)
        charger.release(grant)

    proc = sim.process(cycle(sim, charger, 1.0))
    sim.run()
    with pytest.raises(SimulationError, match="neither held nor queued"):
        _ = proc.value
    assert charger.count == 0 and charger.queue_length == 0


def test_resource_release_before_grant_unwinds_queue_accounting():
    """Cancelling a queued request must not leave ghosts in the heap."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    doomed = res.request(priority=1)
    survivor = res.request(priority=5)
    res.release(doomed)  # cancel while still queued
    assert res.queue_length == 1
    res.release(holder)
    sim.run()
    assert survivor.triggered and res.count == 1


def test_resource_priority_grants_survive_cancellation():
    """Heap order stays correct after the best-priority waiter cancels."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    best = res.request(priority=0)
    mid = res.request(priority=2)
    worst = res.request(priority=7)
    res.release(best)  # cancel the head of the priority heap
    res.release(holder)
    sim.run()
    assert mid.triggered and not worst.triggered


def test_resource_grant_yields_the_request_and_release_drops_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seen = []

    def worker(sim):
        req = res.request()
        grant = yield req
        seen.append(grant is req)
        yield sim.timeout(1.0)
        res.release(grant)
        seen.append(req.value)

    sim.process(worker(sim))
    sim.run()
    # The grant's value is the request itself until it is handed back,
    # so a released request holds no reference to itself.
    assert seen == [True, None]


def test_acquire_grants_a_free_slot_at_once():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []
    res.acquire("a", granted.append)
    res.acquire("b", granted.append)
    res.acquire("c", granted.append)
    # No kernel entry: the grant is a direct call.
    assert granted == ["a", "b"] and sim.peek() == float("inf")
    assert res.count == 2 and res.queue_length == 1


def test_acquire_grants_on_release_in_priority_then_arrival_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    res.acquire("holder", granted.append)
    res.acquire("low", granted.append, priority=5)
    res.acquire("high-1", granted.append, priority=1)
    res.acquire("high-2", granted.append, priority=1)
    for token in ("holder", "high-1", "high-2"):
        res.release(token)
    assert granted == ["holder", "high-1", "high-2", "low"]
    res.release("low")
    assert res.count == 0 and res.queue_length == 0


def test_releasing_a_queued_token_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    res.acquire("holder", granted.append)
    res.acquire("queued", granted.append)
    res.release("queued")
    res.release("holder")
    assert granted == ["holder"]
    assert res.count == 0 and res.queue_length == 0
    with pytest.raises(SimulationError, match="neither held nor queued"):
        res.release("queued")


def test_requests_and_acquires_share_one_wait_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    holder = res.request()
    res.acquire("token", granted.append, priority=2)
    req = res.request(priority=1)
    res.release(holder)
    sim.run()
    assert req.triggered and granted == []
    res.release(req)
    assert granted == ["token"]
