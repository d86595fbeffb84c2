"""The simulation kernel's shared-resource primitive.

:class:`Resource` is a server pool with finite capacity and a FIFO (or
priority) wait queue; it models processors, radio channels and DB
handles.  A slot goes to a *token* through a grant callback
(:meth:`Resource.acquire`), so a caller that is not a process holds a
slot with no kernel entry; :meth:`Resource.request` wraps the same path
in an event a process can yield.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from .core import Event, SimulationError, Simulator

__all__ = ["Resource"]


class _Request(Event):
    """A pending claim on a :class:`Resource`; hand it back to
    :meth:`Resource.release`."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """Finite-capacity server pool with an optional priority queue.

    Tokens are granted in (priority, arrival) order; lower priority value
    is served first.  ``release`` must be passed a held token (or a
    still-queued one, which cancels it); releasing any other token raises
    :class:`SimulationError`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Any] = []
        self._waiting: list[tuple[int, int, Any, Callable[[Any], Any]]] = []
        self._counter = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self, token: Any, grant: Callable[[Any], Any], priority: int = 0) -> None:
        """Claim a slot for ``token``: ``grant(token)`` is called at once if
        one is free, otherwise from the :meth:`release` that frees one."""
        if len(self.users) < self.capacity and not self._waiting:
            self.users.append(token)
            grant(token)
        else:
            heapq.heappush(self._waiting, (priority, next(self._counter), token, grant))

    def request(self, priority: int = 0) -> _Request:
        """A claim a process yields; its grant succeeds it with itself."""
        req = _Request(self, priority)
        self.acquire(req, req.succeed, priority)
        return req

    def release(self, token: Any) -> None:
        if token in self.users:
            self.users.remove(token)
            if type(token) is _Request:
                # A request's grant value is the request itself (``req =
                # yield res.request()``); dropping it here leaves no
                # reference cycle for the cycle collector.
                token._value = None
        else:
            # Cancelling a queued token is allowed (e.g. on interrupt); a
            # token this resource neither holds nor queues is a double or
            # stray release.
            waiting = [entry for entry in self._waiting if entry[2] is not token]
            if len(waiting) == len(self._waiting):
                raise SimulationError(
                    f"release of {token!r}, which is neither held nor queued "
                    f"(count={self.count}, capacity={self.capacity})"
                )
            self._waiting = waiting
            heapq.heapify(waiting)
        self._grant()

    def _grant(self) -> None:
        waiting, users = self._waiting, self.users
        while waiting and len(users) < self.capacity:
            _prio, _seq, token, grant = heapq.heappop(waiting)
            users.append(token)
            grant(token)
