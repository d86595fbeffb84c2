"""perfbench counts kernel queue traffic (``sim.queue_push_calls`` /
``sim.queue_pop_calls``) through the methods of the classes in
``repro.sim.queues.QUEUE_BACKENDS``; every fired event must pass through
them, or those counters silently read 0."""

from repro.sim import Simulator
from repro.sim.queues import QUEUE_BACKENDS


def test_queue_backend_methods_see_every_event(monkeypatch):
    calls = {"push": 0, "pop": 0}
    for backend in QUEUE_BACKENDS.values():
        for name in calls:
            original = getattr(backend, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(backend, name, counted)

    sim = Simulator()
    done = sim.event()

    def ticker(period_s):
        for _ in range(4):
            yield sim.timeout(period_s)

    def waiter():
        yield sim.all_of([sim.process(ticker(0.5)), done])

    def trigger():
        yield sim.timeout(1.0)
        done.succeed("go")

    def sleeper():
        yield sim.timeout(1.5)
        yield done  # processed by now: resumed by a queued entry
        yield sim.timeout(10.0)

    sim.process(ticker(1.0))
    sim.process(waiter())
    sim.process(trigger())
    sim.process(sleeper())
    for until in (0.5, 1.0, 2.5):
        sim.run(until=until)
    sim.run()

    assert calls["push"] == calls["pop"] == sim.events_fired > 0
