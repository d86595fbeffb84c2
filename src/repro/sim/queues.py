"""The simulation kernel's event queue: one binary heap.

The kernel orders its future events by ``(when, seq)``: absolute
simulation time first, then the strictly increasing sequence number the
simulator stamps at scheduling time.  ``seq`` is the FIFO tiebreak that
makes event order -- and therefore every trace hash the platform commits
to -- a pure function of the schedule: two events scheduled for the same
instant fire in the order they were scheduled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

__all__ = ["HeapQueue"]

#: An entry is ``(when, seq, event)``; ``seq`` is unique per simulator,
#: so tuple comparison never reaches the (uncomparable) event.
Entry = tuple


class HeapQueue:
    """Future events in ascending ``(when, seq)`` order (``heapq`` underneath)."""

    def __init__(self):
        self._items: list[Entry] = []

    def push(self, when: float, seq: int, event: Any) -> None:
        heappush(self._items, (when, seq, event))

    def pop(self) -> Entry:
        """Remove and return the smallest entry (IndexError when empty)."""
        return heappop(self._items)

    def peek(self) -> float:
        """Time of the next entry, or ``+inf`` when empty."""
        return self._items[0][0] if self._items else float("inf")

    def __len__(self) -> int:
        return len(self._items)


#: perfbench's layer counters read the queue class through this table.
QUEUE_BACKENDS = {"heap": HeapQueue}
