"""The instrumentation facade: a no-op :class:`Recorder` and the real
:class:`Collector`.

Every instrumented subsystem (sim kernel, DSF, executor, cellular stack,
uplink migrator, ...) talks to a :class:`Recorder`.  The base class is the
**null sink**: every record is dropped and :attr:`Recorder.enabled` is
False, so an uninstrumented run pays one attribute load and an empty call
per hook -- and hooks that would have to *compute* something to record
(e.g. scan the DDI backlog) guard on ``enabled`` and skip the work
entirely.  Installing a :class:`Collector` turns the same call sites into
a metric registry + span tracer, with JSON exporters for both.
``Collector(trace=False)`` records metrics only: its span hooks do
nothing and :attr:`Recorder.tracing` is False, so the kernel also skips
its per-event queue-depth samples.  Fleet partitions use it, because they
ship mergeable metric state and nothing else.

A hot call site holds its series: ``counter(name, **labels)`` and
``histogram(name, **labels)`` return the series itself, so a record is
one ``inc``/``observe`` on it.  A site resolves it when its first record
would have created it, so holding one never adds a series to a snapshot.
``count``/``observe`` are the one-shot form of the same lookup: the
Collector keeps a cache per metric kind keyed by the raw call (name plus
label items), in front of the registry, which alone creates,
canonicalizes and kind-checks a series.  The null sink hands out one
shared series that ignores every record, so a held-series site records
without a guard: an uninstrumented drive's DSF completions and drive-loop
samples land in it.  Only a site that would compute something to record
(a sum, a queue depth, a gauge's read) checks ``enabled`` first.

The single-wiring-point pattern: hand one Collector to
``Simulator(obs=...)`` (or ``DriveScenario(observe=...)``) and every
subsystem sharing that simulator records into it.
"""

from __future__ import annotations

import os
from typing import Callable

from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .trace import SpanTracer

__all__ = ["Recorder", "Collector", "NULL_RECORDER"]


class _NullSeries:
    """The null sink's series: counter and histogram alike, it drops
    every record."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SERIES = _NullSeries()


class Recorder:
    """No-op instrumentation sink; :class:`Collector` overrides everything.

    Hot paths may call these unconditionally; expensive-to-gather hooks
    should guard on :attr:`enabled` first.
    """

    #: False on the null sink: lets call sites skip costly data gathering.
    enabled = False
    #: False when spans are dropped: lets call sites skip trace-only work.
    tracing = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source spans are stamped from (sim clock)."""

    def counter(self, name: str, **labels) -> Counter | _NullSeries:
        """The counter series ``count(name, ..., **labels)`` bumps, to
        hold and ``inc`` directly."""
        return _NULL_SERIES

    def histogram(self, name: str, **labels) -> Histogram | _NullSeries:
        """The histogram series ``observe(name, ..., **labels)`` feeds,
        to hold and ``observe`` directly."""
        return _NULL_SERIES

    def count(self, name: str, n: float = 1.0, **labels) -> None:
        """Bump a counter series."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to a spot value."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Feed one sample to a histogram series."""

    def observe_batch(self, name: str, values, **labels) -> None:
        """Feed a batch of samples to a histogram series.

        Exactly equivalent to observing each value in order -- hot loops
        accumulate locally and flush once through this hook.
        """

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        """Record a possibly-overlapping span after the fact."""

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        """Record a zero-duration marker."""


#: The shared null sink every subsystem defaults to.
NULL_RECORDER = Recorder()


class Collector(Recorder):
    """A live recorder: metric registry + span tracer + exporters.

    ``trace=False`` leaves the tracer out: async spans and instants are
    dropped, and there is no trace to export.

    ``counter``, ``histogram`` and ``gauge`` (and so every one-shot
    record) look a series up in a per-kind cache keyed by the raw call:
    ``name`` alone, or the flat tuple ``(name, *labels,
    *labels.values())`` (its length fixes where the names end).  A miss
    asks the registry, exactly as an uncached call would, and caches the
    answer only when every label value is a ``str``: values of other
    types can compare equal while rendering differently (``1``, ``1.0``,
    ``True``), so they always take the registry's path.  An unhashable
    value fails the lookup with ``TypeError`` and takes that path too.
    """

    enabled = True

    def __init__(
        self, clock: Callable[[], float] | None = None, trace: bool = True
    ):
        self.registry = MetricRegistry()
        self.tracing = trace
        self.tracer = SpanTracer(clock) if trace else None
        self._counters: dict[object, Counter] = {}
        self._gauges: dict[object, Gauge] = {}
        self._histograms: dict[object, Histogram] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        if self.tracer is not None:
            self.tracer.clock = clock

    @staticmethod
    def _series(cache: dict, create, name: str, labels: dict):
        """The series ``create(name, **labels)`` names, one dict lookup
        once cached (see the class docstring for what is cached)."""
        key = (name, *labels, *labels.values()) if labels else name
        try:
            return cache[key]
        except (KeyError, TypeError):
            pass
        metric = create(name, **labels)
        for value in labels.values():
            if type(value) is not str:
                return metric
        cache[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._series(self._counters, self.registry.counter, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._series(
            self._histograms, self.registry.histogram, name, labels
        )

    def count(self, name: str, n: float = 1.0, **labels) -> None:
        self.counter(name, **labels).inc(n)

    def gauge(self, name: str, value: float, **labels) -> None:
        self._series(self._gauges, self.registry.gauge, name, labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    def observe_batch(self, name: str, values, **labels) -> None:
        # An empty batch must not materialize the series (a sequence of
        # zero observe() calls would not have).
        if len(values):
            self.histogram(name, **labels).observe_many(values)

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        if self.tracer is not None:
            self.tracer.async_span(name, start_s, end_s, track=track, **args)

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, ts=ts, track=track, **args)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current metric snapshot (a plain dict)."""
        return self.registry.snapshot()

    def metrics_json(self, indent: int | None = 2) -> str:
        """Stable JSON of every metric series."""
        return self.registry.to_json(indent=indent)

    def trace_json(self, indent: int | None = None) -> str:
        """Stable Chrome ``trace_event`` JSON (open in Perfetto)."""
        if self.tracer is None:
            raise RuntimeError("this collector records metrics only: no trace")
        return self.tracer.to_json(indent=indent)

    def write(self, directory: str) -> tuple[str, str]:
        """Write ``metrics.json`` + ``trace.json`` under ``directory``.

        Called after a run finishes (never from inside a sim process).
        Returns the two paths.
        """
        os.makedirs(directory, exist_ok=True)
        metrics_path = os.path.join(directory, "metrics.json")
        trace_path = os.path.join(directory, "trace.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics_json())
            fh.write("\n")
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(self.trace_json())
            fh.write("\n")
        return metrics_path, trace_path
