"""The simulation kernel's shared-resource primitive.

:class:`Resource` is a server pool with finite capacity and a FIFO (or
priority) request queue; it models processors, radio channels and DB
handles.
"""

from __future__ import annotations

import heapq
import itertools

from .core import Event, SimulationError, Simulator

__all__ = ["Resource"]


class _Request(Event):
    """A pending claim on a :class:`Resource`; hand it back to
    :meth:`Resource.release`."""

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """Finite-capacity server pool with an optional priority queue.

    Requests are granted in (priority, arrival) order; lower priority value
    is served first.  ``release`` must be passed the granted request token
    (or a still-queued one, which cancels it); releasing any other token
    raises :class:`SimulationError`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: list[_Request] = []
        self._waiting: list[tuple[int, int, _Request]] = []
        self._counter = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> _Request:
        req = _Request(self, priority)
        if len(self.users) < self.capacity and not self._waiting:
            self.users.append(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, (priority, next(self._counter), req))
        return req

    def release(self, request: _Request) -> None:
        if request in self.users:
            self.users.remove(request)
            # A grant's value is the request itself (``req = yield
            # res.request()``); dropping it here leaves no reference cycle
            # for the cycle collector once the slot is handed back.
            request._value = None
        else:
            # Cancelling a queued request is allowed (e.g. on interrupt);
            # a token this resource neither holds nor queues is a double
            # or stray release.
            waiting = [
                entry for entry in self._waiting if entry[2] is not request
            ]
            if len(waiting) == len(self._waiting):
                raise SimulationError(
                    f"release of {request!r}, which is neither held nor queued "
                    f"(count={self.count}, capacity={self.capacity})"
                )
            self._waiting = waiting
            heapq.heapify(self._waiting)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            _prio, _seq, req = heapq.heappop(self._waiting)
            self.users.append(req)
            req.succeed(req)
