"""Runtime determinism sanitizer: the dynamic half of the contract check.

The file-local lint rules flag direct wall-clock and global-RNG reads
where they are written, and the golden per-vehicle trace hashes pin what
a seeded fleet run must produce; this module checks the *execution* and
finds where two runs part.  A :class:`DeterminismSanitizer`
wraps a live :class:`~repro.sim.core.Simulator` and records, for every
event the loop fires, a :class:`TraceRecord` of (sequence number, sim
time, event kind, process name) folded into a rolling BLAKE2 hash.  Two
runs of the same seeded scenario must produce identical ``trace_hash``
values; when they do not, :meth:`DeterminismSanitizer.diff` walks the
two traces to the **first diverging event**, which is almost always the
component that smuggled in wall-clock time, an unseeded RNG, or
hash-order iteration.

RNG discipline is watched the same way: :meth:`watch_rng` wraps a
:class:`~repro.sim.random.RngRegistry` so every draw increments a
per-(stream, method) counter -- same seed, same code path => identical
draw counts, and a drifted counter names the stream that diverged.

The sanitizer is opt-in and zero-cost when absent: it installs a single
kernel trace tap (:meth:`~repro.sim.core.Simulator.add_trace_tap`) on the
simulator handed to it and removes it on :meth:`detach` (or
context-manager exit) -- no per-event wrapper objects are allocated.
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple, Optional

__all__ = [
    "Divergence",
    "DeterminismSanitizer",
    "TraceRecord",
]


class TraceRecord(NamedTuple):
    """One fired event, as the sanitizer saw it."""

    seq: int
    time: float
    kind: str
    name: str

    def text(self) -> str:
        return f"#{self.seq} t={self.time!r} {self.kind}({self.name})"


class Divergence(NamedTuple):
    """The first point where two traces disagree."""

    index: int
    left: Optional[TraceRecord]
    right: Optional[TraceRecord]

    def explain(self) -> str:
        left = self.left.text() if self.left else "<trace ended>"
        right = self.right.text() if self.right else "<trace ended>"
        return f"first divergence at event {self.index}: {left} != {right}"


class _CountingRng:
    """Duck-typed RNG proxy that counts draws per method name."""

    def __init__(self, stream_name: str, rng: Any, counts: dict[tuple[str, str], int]):
        self._stream_name = stream_name
        self._rng = rng
        self._counts = counts

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._rng, attr)
        if not callable(value):
            return value

        def counted(*args: Any, **kwargs: Any) -> Any:
            key = (self._stream_name, attr)
            self._counts[key] = self._counts.get(key, 0) + 1
            return value(*args, **kwargs)

        return counted


class DeterminismSanitizer:
    """Records a rolling trace hash of every event a Simulator fires.

    Usage::

        sim = Simulator()
        san = DeterminismSanitizer(sim)
        ... build scenario, sim.run() ...
        print(san.trace_hash)        # identical across same-seed runs
        div = san.diff(other_san)    # None, or the first divergent event

    ``keep_records=False`` keeps only the rolling hash (bounded memory)
    for long soak runs where a pass/fail bit is enough.

    Trace lines are buffered and folded into the hash in batches -- at
    most :attr:`FOLD_LINES` at a time and on every read -- rather than
    one ``update`` per event.  BLAKE2 is streaming, so the digest is the
    one a per-line fold gives.
    """

    #: Buffered trace lines that force a fold into the hash.
    FOLD_LINES = 4096

    def __init__(self, sim: Any, keep_records: bool = True):
        self.sim = sim
        self.keep_records = keep_records
        self.records: list[TraceRecord] = []
        self.event_count = 0
        self.rng_counts: dict[tuple[str, str], int] = {}
        self._hash = hashlib.blake2b(digest_size=16)
        self._lines: list[str] = []
        self._watched: list[tuple[Any, Any]] = []
        sim.add_trace_tap(self._record)
        self._attached = True

    # -- event recording ---------------------------------------------------

    def _record(self, event: Any, when: float) -> None:
        seq = self.event_count
        self.event_count = seq + 1
        name = getattr(event, "name", "") or ""
        kind = type(event).__name__
        # The f-string *is* the hashed trace line -- it cannot be hoisted.
        lines = self._lines
        lines.append(f"{seq}|{when!r}|{kind}|{name}\n")
        if len(lines) >= self.FOLD_LINES:
            self._fold()
        if self.keep_records:
            self.records.append(TraceRecord(seq=seq, time=when, kind=kind, name=name))

    def _fold(self) -> None:
        """Hash every buffered trace line in one update."""
        if self._lines:
            self._hash.update("".join(self._lines).encode())
            self._lines.clear()

    # -- rng watching ------------------------------------------------------

    def watch_rng(self, registry: Any) -> Any:
        """Count draws on every stream handed out by ``registry``.

        Works on any object with a ``stream(name)`` method (the
        platform's :class:`~repro.sim.random.RngRegistry`); returns the
        registry for chaining.
        """
        original_stream = registry.stream

        def counting_stream(name: str) -> Any:
            return _CountingRng(name, original_stream(name), self.rng_counts)

        self._watched.append((registry, original_stream))
        registry.stream = counting_stream
        return registry

    def draw_counts(self) -> dict[str, int]:
        """Total draws per stream name (summed over methods)."""
        totals: dict[str, int] = {}
        for (stream_name, _method), count in sorted(self.rng_counts.items()):
            totals[stream_name] = totals.get(stream_name, 0) + count
        return totals

    # -- results -----------------------------------------------------------

    @property
    def trace_hash(self) -> str:
        """Hex digest of everything recorded so far (rolling state)."""
        self._fold()
        return self._hash.copy().hexdigest()

    def diff(self, other: "DeterminismSanitizer") -> Optional[Divergence]:
        """First divergent event between two recorded traces, or None.

        Requires both sides to have kept records; trace-hash-only
        sanitizers can still be compared via :attr:`trace_hash`.
        """
        if not self.keep_records or not other.keep_records:
            raise ValueError("diff() needs keep_records=True on both sides")
        for index, (left, right) in enumerate(zip(self.records, other.records)):
            if left != right:
                return Divergence(index, left, right)
        if len(self.records) != len(other.records):
            index = min(len(self.records), len(other.records))
            left = self.records[index] if index < len(self.records) else None
            right = other.records[index] if index < len(other.records) else None
            return Divergence(index, left, right)
        return None

    def summary(self) -> dict[str, Any]:
        """A JSON-friendly digest for bench reports."""
        return {
            "events": self.event_count,
            "trace_hash": self.trace_hash,
            "rng_draws": self.draw_counts(),
        }

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Restore the simulator (and any watched registries)."""
        if self._attached:
            self.sim.remove_trace_tap(self._record)
            self._attached = False
        while self._watched:
            registry, original_stream = self._watched.pop()
            registry.stream = original_stream

    def __enter__(self) -> "DeterminismSanitizer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.detach()
