"""Deliberately broken fleet code for the runtime guards to reject.

The corpus holds a ``.vdaplint-skip`` marker: the whole-program lint
rightly flags these processes (RACE001 on the bus they misuse), and the
tree must stay strict-clean.
"""

__all__ = ["greedy_loop"]


def greedy_loop(sim, bus):
    """A sim process that drains and delivers the V2V bus itself,
    bypassing the coordinator's canonical barrier exchange."""
    yield sim.timeout(0.5)
    bus.deliver(bus.drain_outbox())
