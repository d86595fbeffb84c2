"""Deliberately broken fleet code for the runtime guards to reject."""

__all__ = ["greedy_loop"]


def greedy_loop(sim, bus):
    """A sim process that drains and delivers the V2V bus itself,
    bypassing the coordinator's canonical barrier exchange."""
    yield sim.timeout(0.5)
    bus.deliver(bus.drain_outbox())
