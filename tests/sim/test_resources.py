"""Unit tests for Resource, Container, Store, PriorityStore."""

import pytest

from repro.sim import Container, PriorityStore, Resource, SimulationError, Simulator, Store


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


def test_container_initial_level_validation():
    with pytest.raises(SimulationError):
        Container(Simulator(), capacity=5, init=6)


def test_container_put_get_levels():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=5)
    tank.get(3)
    tank.put(6)
    sim.run()
    assert tank.level == 8


def test_container_get_blocks_until_available():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=0)
    got = tank.get(4)
    sim.run()
    assert not got.triggered
    tank.put(4)
    sim.run()
    assert got.triggered and tank.level == 0


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=5, init=5)
    put = tank.put(1)
    sim.run()
    assert not put.triggered
    tank.get(2)
    sim.run()
    assert put.triggered and tank.level == 4


def test_container_negative_amounts_raise():
    tank = Container(Simulator(), capacity=5)
    with pytest.raises(SimulationError):
        tank.put(-1)
    with pytest.raises(SimulationError):
        tank.get(-1)


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    store.put("y")
    g1, g2 = store.get(), store.get()
    sim.run()
    assert g1.value == "x" and g2.value == "y"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = store.get()
    assert not got.triggered
    store.put("item")
    assert got.triggered and got.value == "item"


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("a")
    blocked = store.put("b")
    assert not blocked.triggered
    store.get()
    assert blocked.triggered and len(store) == 1


def test_priority_store_orders_items():
    sim = Simulator()
    store = PriorityStore(sim)
    store.put((3, "low"))
    store.put((1, "high"))
    store.put((2, "mid"))
    got = [store.get().value for _ in range(3)]
    assert got == [(1, "high"), (2, "mid"), (3, "low")]


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


def test_container_zero_amount_put_get_succeed_immediately():
    sim = Simulator()
    tank = Container(sim, capacity=5.0, init=0.0)
    assert tank.put(0.0).triggered
    assert tank.get(0.0).triggered
    assert tank.level == 0.0


def test_container_zero_get_does_not_jump_blocked_getters():
    """A zero-amount get behind a blocked getter waits its turn (FIFO)."""
    sim = Simulator()
    tank = Container(sim, capacity=5.0, init=0.0)
    blocked = tank.get(2.0)
    zero = tank.get(0.0)
    assert not blocked.triggered and not zero.triggered
    tank.put(2.0)
    assert blocked.triggered and zero.triggered


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
