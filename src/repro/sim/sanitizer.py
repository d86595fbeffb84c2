"""Runtime determinism sanitizer: the dynamic half of the contract check.

The file-local lint rules flag direct wall-clock and global-RNG reads
where they are written, and the golden per-vehicle trace hashes pin what
a seeded fleet run must produce; this module checks the *execution* and
finds where two runs part.  A :class:`DeterminismSanitizer` attaches a
live :class:`~repro.sim.core.Simulator`'s
:class:`~repro.sim.core.EventTrace`, in which the kernel records the
fire time and the ``kind|name`` label of every event it fires, and reads
it back: a trace hash over those packed arrays and, when records are
kept, one :class:`TraceRecord` (sequence number, sim time, event kind,
process name) per event.  Two runs of the same seeded scenario must
produce identical ``trace_hash`` values; when they do not,
:meth:`DeterminismSanitizer.diff` finds the **first diverging event**,
which is almost always the component that smuggled in wall-clock time,
an unseeded RNG, or hash-order iteration.

RNG discipline is watched the same way: :meth:`watch_rng` wraps a
:class:`~repro.sim.random.RngRegistry` so every draw increments a
per-(stream, method) counter -- same seed, same code path => identical
draw counts, and a drifted counter names the stream that diverged.

The sanitizer is opt-in and costs nothing per event in Python: the loop
appends to two arrays, and :meth:`detach` (or context-manager exit)
stops the recording.
"""

from __future__ import annotations

from array import array
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


def _bits(times: array) -> array:
    """The fire times' IEEE-754 bit patterns, one unsigned int each."""
    bits = array("Q")
    bits.frombytes(times.tobytes())
    return bits


def _record_at(kept: tuple, seq: int) -> Optional[TraceRecord]:
    """Event ``seq`` of a kept trace, or None past its end."""
    times, labels = kept
    if seq >= len(times):
        return None
    return TraceRecord(seq, times[seq], *labels[seq][:-1].split("|", 1))


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
    """Reads the trace hash of every event a Simulator fires.

    Usage::

        sim = Simulator()
        san = DeterminismSanitizer(sim)
        ... build scenario, sim.run() ...
        print(san.trace_hash)        # identical across same-seed runs
        div = san.diff(other_san)    # None, or the first divergent event

    The sanitizer attaches the simulator's
    :class:`~repro.sim.core.EventTrace` and reads it; the kernel does the
    recording.  ``keep_records=False`` keeps only the digests (bounded
    memory) for long soak runs where a pass/fail bit is enough.
    """

    def __init__(self, sim: Any, keep_records: bool = True):
        self.sim = sim
        self.keep_records = keep_records
        self.rng_counts: dict[tuple[str, str], int] = {}
        self._watched: list[tuple[Any, Any]] = []
        self.trace = sim.attach_trace(keep=keep_records)
        self._attached = True

    @property
    def event_count(self) -> int:
        """Events traced so far."""
        self.trace.fold()
        return self.trace.count

    @property
    def records(self) -> list[TraceRecord]:
        """Every traced event (empty without ``keep_records``)."""
        self.trace.fold()
        kept = self.trace.kept
        return [] if kept is None else [_record_at(kept, seq) for seq in range(len(kept[0]))]

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
        return self.trace.hexdigest()

    def diff(self, other: "DeterminismSanitizer") -> Optional[Divergence]:
        """First divergent event between two recorded traces, or None.

        Requires both sides to have kept records; trace-hash-only
        sanitizers can still be compared via :attr:`trace_hash`.  Times
        are compared by their bits, as the hash sees them.
        """
        if not self.keep_records or not other.keep_records:
            raise ValueError("diff() needs keep_records=True on both sides")
        self.trace.fold()
        other.trace.fold()
        left, right = self.trace.kept, other.trace.kept
        left_bits, right_bits = _bits(left[0]), _bits(right[0])
        if left_bits == right_bits and left[1] == right[1]:
            return None
        common = min(len(left_bits), len(right_bits))
        index = next(
            (i for i in range(common)
             if left_bits[i] != right_bits[i] or left[1][i] != right[1][i]),
            common,
        )
        return Divergence(index, _record_at(left, index), _record_at(right, index))

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
            self.sim.detach_trace()
            self._attached = False
        while self._watched:
            registry, original_stream = self._watched.pop()
            registry.stream = original_stream

    def __enter__(self) -> "DeterminismSanitizer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.detach()
