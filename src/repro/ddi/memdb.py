"""In-memory cache with per-key TTL (the DDI's Redis stand-in).

Paper SIV-D: "in-memory database caches the frequently used data from disk
database to decrease the response latency of request.  For all the data
cached into the in-memory database, a survival time is set for it."

The clock is injected so the cache works both under the simulation kernel
and in plain scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["MemDB", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MemDB:
    """A TTL key-value cache with LRU eviction at a size cap."""

    def __init__(
        self,
        clock: Callable[[], float],
        default_ttl_s: float = 60.0,
        max_entries: int = 10_000,
    ):
        if default_ttl_s <= 0:
            raise ValueError("TTL must be positive")
        if max_entries < 1:
            raise ValueError("cache needs at least one slot")
        self._clock = clock
        self.default_ttl_s = default_ttl_s
        self.max_entries = max_entries
        self._data: dict[str, tuple[float, Any]] = {}  # key -> (expiry, value)
        self._lru: dict[str, float] = {}  # key -> last access time
        self.stats = CacheStats()

    def __len__(self) -> int:
        self._sweep()
        return len(self._data)

    def _sweep(self) -> None:
        now = self._clock()
        expired = [k for k, (expiry, _v) in self._data.items() if expiry <= now]
        for key in expired:
            del self._data[key]
            self._lru.pop(key, None)
            self.stats.evictions += 1

    def put(self, key: str, value: Any, ttl_s: float | None = None) -> None:
        self._sweep()
        if len(self._data) >= self.max_entries and key not in self._data:
            victim = min(self._lru, key=self._lru.get)
            del self._data[victim]
            del self._lru[victim]
            self.stats.evictions += 1
        ttl = self.default_ttl_s if ttl_s is None else ttl_s
        if ttl <= 0:
            raise ValueError("TTL must be positive")
        now = self._clock()
        self._data[key] = (now + ttl, value)
        self._lru[key] = now

    def get(self, key: str) -> Any | None:
        """Value if present and unexpired, else None (counts a miss)."""
        now = self._clock()
        entry = self._data.get(key)
        if entry is None or entry[0] <= now:
            if entry is not None:
                del self._data[key]
                self._lru.pop(key, None)
                self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._lru[key] = now
        return entry[1]

    def contains(self, key: str) -> bool:
        """Presence check without touching hit/miss stats."""
        entry = self._data.get(key)
        return entry is not None and entry[0] > self._clock()

