"""Shared-resource primitives for the simulation kernel.

Three classic abstractions:

* :class:`Resource` -- a server pool with finite capacity and a FIFO (or
  priority) request queue; models processors, radio channels, DB handles.
* :class:`Container` -- a continuous level (energy in a battery, bytes of
  buffer) with put/get semantics.
* :class:`Store` -- a queue of discrete items (packets, tasks) with
  blocking get.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from .core import Event, SimulationError, Simulator

__all__ = ["Resource", "Container", "Store", "PriorityStore"]


class _Request(Event):
    """A pending claim on a :class:`Resource`; use as a context token."""

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority

    def release(self) -> None:
        self.resource.release(self)


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


class Container:
    """A continuous quantity with bounded capacity (fuel, energy, bytes)."""

    def __init__(self, sim: Simulator, capacity: float = float("inf"), init: float = 0.0):
        if init < 0 or init > capacity:
            raise SimulationError("initial level outside [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = init
        self._getters: list[tuple[int, float, Event]] = []
        self._putters: list[tuple[int, float, Event]] = []
        self._counter = itertools.count()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        event = Event(self.sim)
        self._putters.append((next(self._counter), amount, event))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        event = Event(self.sim)
        self._getters.append((next(self._counter), amount, event))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                seq, amount, event = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    self._putters.pop(0)
                    event.succeed(amount)
                    progressed = True
            if self._getters:
                seq, amount, event = self._getters[0]
                if self._level >= amount:
                    self._level -= amount
                    self._getters.pop(0)
                    event.succeed(amount)
                    progressed = True


class Store:
    """FIFO store of discrete items with blocking get and bounded capacity."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        self.sim = sim
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Any, Event]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        self._putters.append((item, event))
        self._settle()
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def _pop_item(self) -> Any:
        return self.items.pop(0)

    def _accepts(self) -> bool:
        return len(self.items) < self.capacity

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._accepts():
                item, event = self._putters.pop(0)
                self._insert(item)
                event.succeed(item)
                progressed = True
            if self._getters and self.items:
                event = self._getters.pop(0)
                event.succeed(self._pop_item())
                progressed = True

    def _insert(self, item: Any) -> None:
        self.items.append(item)


class PriorityStore(Store):
    """A store whose get() returns the smallest item (heap order).

    Items must be orderable; wrap payloads in ``(priority, seq, payload)``
    tuples when the payloads themselves do not define ordering.
    """

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _pop_item(self) -> Any:
        return heapq.heappop(self.items)
