"""Metric primitives and the registry: counters, gauges, histograms.

Everything here is deterministic by construction: no wall clock, no RNG,
and every export path (snapshot, diff, merge, JSON) iterates metrics in
sorted key order so two identical-seed runs serialize byte-identically.

The registry is label-aware -- ``registry.counter("net.packets",
link="lte")`` and ``registry.counter("net.packets", link="dsrc")`` are
distinct series -- and snapshots are plain nested dicts, so they diff and
merge with ordinary dictionary code (and round-trip through JSON).

:class:`Summary` and :class:`Timeline` (formerly ``repro.metrics``,
now fully migrated here) live here too.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "P2Quantile",
    "Summary",
    "Timeline",
    "DEFAULT_BUCKETS",
    "diff_snapshots",
    "merge_snapshots",
    "merge_many",
    "mergeable_view",
]

#: Default histogram bucket upper bounds: a geometric ladder that covers
#: microseconds-to-minutes latencies in seconds (the platform's native unit).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0,
)


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    """Render a label set as the canonical ``{k=v,...}`` suffix."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


@dataclass
class Counter:
    """A monotonically non-decreasing sum (events, bytes, joules)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the running total."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def to_snapshot(self) -> float:
        return self.value


@dataclass
class Gauge:
    """A spot value that moves both ways (queue depth, watermark, level)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    last: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    sets: int = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.sets += 1

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def to_snapshot(self) -> dict:
        if self.sets == 0:
            return {"last": 0.0, "min": 0.0, "max": 0.0, "sets": 0}
        return {
            "last": self.last,
            "min": self.minimum,
            "max": self.maximum,
            "sets": self.sets,
        }


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P-squared algorithm).

    Tracks one quantile in O(1) memory without storing samples: five
    markers whose heights are nudged toward the target positions with a
    piecewise-parabolic fit.  Exact while fewer than five samples have
    arrived.  Entirely deterministic: same sample sequence, same estimate.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments: list[float] = []
        self.count = 0

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        if self.count <= 5:
            insort(self._heights, x)
            if self.count == 5:
                q = self.q
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        h, pos = self._heights, self._positions
        # Find the cell the sample falls into and stretch the outer markers.
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and x >= h[cell + 1]:
                cell += 1
        desired, increments = self._desired, self._increments
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            desired[i] += increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = desired[i] - pos[i]
            if (delta >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                delta <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic estimate escaped the bracket: go linear
                    j = i + int(step)
                    h[i] += step * (h[j] - h[i]) / (pos[j] - pos[i])
                pos[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    @property
    def value(self) -> float:
        """Current estimate (exact below five samples; 0.0 when empty)."""
        if not self._heights:
            return 0.0
        if self.count <= 5:
            rank = self.q * (len(self._heights) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(self._heights) - 1)
            return self._heights[lo] + (rank - lo) * (
                self._heights[hi] - self._heights[lo]
            )
        return self._heights[2]


#: Quantiles every histogram snapshot reports as P-squared estimates.
TRACKED_QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class Histogram:
    """Fixed-bucket distribution with P-squared quantile estimates on read.

    ``bounds`` are inclusive upper edges; one extra overflow bucket counts
    samples above the last bound.  Buckets, count, sum, min and max are
    the mergeable state (:meth:`state`) and are updated per sample.

    The p50/p95/p99 estimates are not: each sample is appended to a log of
    unread samples (an ``array('d')``, 8 B per sample), and reading a
    tracked quantile replays that log, in arrival order, through three
    P-squared estimators, then empties it.  The estimates are therefore
    bit-identical to estimators fed live, memory is O(samples since the
    last read), and a histogram whose quantiles are never read -- every
    fleet partition's, which ship :meth:`state` -- never runs P-squared.
    """

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def __post_init__(self):
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._bounds_arr = np.asarray(self.bounds, dtype=float)
        self._unread = array("d")
        self._estimators: dict[float, P2Quantile] | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._unread.append(value)

    def observe_many(self, values) -> None:
        """Feed a batch of samples; exactly equivalent to n observes.

        Bucket counting is vectorized (``searchsorted`` matches
        ``bisect_left`` element-for-element).  The sum is one sequential
        ``cumsum`` seeded with the running total -- not the pairwise
        ``np.sum`` -- so the float ``sum`` is bit-identical to per-sample
        ``+=``.  The batch joins the unread log as one chunk, in order,
        so quantile estimates match per-sample :meth:`observe` too.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        counts = np.bincount(
            np.searchsorted(self._bounds_arr, arr, side="left"),
            minlength=len(self.bucket_counts),
        )
        buckets = self.bucket_counts
        for i, n in enumerate(counts.tolist()):
            if n:
                buckets[i] += n
        self.count += arr.size
        self.total = float(np.cumsum(np.concatenate(([self.total], arr)))[-1])
        low, high = float(arr.min()), float(arr.max())
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high
        self._unread.frombytes(arr.tobytes())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """P-squared estimate of a tracked quantile (``TRACKED_QUANTILES``)."""
        if q not in TRACKED_QUANTILES:
            raise ValueError(
                f"quantile {q} is not tracked; tracked: {TRACKED_QUANTILES}"
            )
        if self._estimators is None:
            self._estimators = {t: P2Quantile(t) for t in TRACKED_QUANTILES}
        if self._unread:
            samples = self._unread.tolist()
            self._unread = array("d")
            for estimator in self._estimators.values():
                add = estimator.add
                for value in samples:
                    add(value)
        return self._estimators[q].value

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def state(self) -> dict:
        """The mergeable fields: count, sum, min, max, mean, buckets, bounds."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "buckets": list(self.bucket_counts),
            "bounds": list(self.bounds),
        }

    def to_snapshot(self) -> dict:
        """:meth:`state` plus the ``p50``/``p95``/``p99`` estimates."""
        snap = self.state()
        for q in TRACKED_QUANTILES:
            snap[f"p{int(q * 100)}"] = self.quantile(q)
        return snap


class MetricRegistry:
    """Get-or-create home of every metric series, keyed by name + labels.

    The kind of a series is fixed at first use: asking for a counter named
    like an existing gauge is a bug and raises.
    """

    def __init__(self):
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get_or_create(self, kind, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name=name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter series for ``name`` + ``labels`` (created on first use)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge series for ``name`` + ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        """The histogram series for ``name`` + ``labels``.

        ``bounds`` only applies on first creation; later calls reuse the
        existing series whatever its bucket layout.
        """
        if bounds is not None:
            return self._get_or_create(Histogram, name, labels, bounds=tuple(bounds))
        return self._get_or_create(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def series(self) -> list:
        """All metric objects in sorted key order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Plain-dict view of every series, sorted by key: diffable, mergeable,
        JSON-serializable, and stable across identical runs.  Histograms
        carry their quantile estimates, which replays their unread samples."""
        return self._export(Histogram.to_snapshot)

    def state(self) -> dict:
        """:meth:`snapshot` without the histogram quantile estimates.

        Everything :func:`merge_snapshots` and :func:`mergeable_view` need,
        and nothing that replays a sample log: what fleet partitions ship.
        """
        return self._export(Histogram.state)

    def _export(self, histogram_view) -> dict:
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.series():
            if isinstance(metric, Counter):
                out["counters"][metric.key] = metric.to_snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][metric.key] = metric.to_snapshot()
            else:
                out["histograms"][metric.key] = histogram_view(metric)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON export of the current snapshot (sorted keys)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def diff_snapshots(later: dict, earlier: dict) -> dict:
    """What happened between two snapshots of the same registry.

    Counters subtract; histogram counts/sums/buckets subtract (quantile
    estimates are point-in-time and carried from ``later``); gauges are
    spot values, so the later reading wins unchanged.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in later.get("counters", {}).items():
        out["counters"][key] = value - earlier.get("counters", {}).get(key, 0.0)
    out["gauges"] = dict(later.get("gauges", {}))
    for key, snap in later.get("histograms", {}).items():
        before = earlier.get("histograms", {}).get(key)
        merged = dict(snap)
        if before is not None:
            merged["count"] = snap["count"] - before["count"]
            merged["sum"] = snap["sum"] - before["sum"]
            merged["buckets"] = [
                a - b for a, b in zip(snap["buckets"], before["buckets"])
            ]
        out["histograms"][key] = merged
    return out


#: The fields of :meth:`Histogram.state`, in its order.
_STATE_FIELDS = ("count", "sum", "min", "max", "mean", "buckets", "bounds")


def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine snapshots from two runs/registries into one aggregate.

    Counters and histogram buckets/counts/sums add; gauges combine min/max
    and keep ``b``'s last reading.  A merged histogram carries its
    :meth:`Histogram.state` fields only, because P-squared estimates are
    not mergeable.  Inputs may be :meth:`MetricRegistry.state` exports
    (what fleet partitions ship), which carry no estimates at all.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for key in sorted(set(a.get("counters", {})) | set(b.get("counters", {}))):
        out["counters"][key] = a.get("counters", {}).get(key, 0.0) + b.get(
            "counters", {}
        ).get(key, 0.0)
    for key in sorted(set(a.get("gauges", {})) | set(b.get("gauges", {}))):
        ga = a.get("gauges", {}).get(key)
        gb = b.get("gauges", {}).get(key)
        if ga is None or gb is None:
            out["gauges"][key] = dict(gb or ga)
            continue
        out["gauges"][key] = {
            "last": gb["last"] if gb["sets"] else ga["last"],
            "min": min(ga["min"], gb["min"]) if ga["sets"] and gb["sets"] else (ga if ga["sets"] else gb)["min"],
            "max": max(ga["max"], gb["max"]) if ga["sets"] and gb["sets"] else (ga if ga["sets"] else gb)["max"],
            "sets": ga["sets"] + gb["sets"],
        }
    for key in sorted(set(a.get("histograms", {})) | set(b.get("histograms", {}))):
        ha = a.get("histograms", {}).get(key)
        hb = b.get("histograms", {}).get(key)
        if ha is None or hb is None:
            only = hb or ha
            out["histograms"][key] = {field: only[field] for field in _STATE_FIELDS}
            continue
        if ha["bounds"] != hb["bounds"]:
            raise ValueError(f"cannot merge histogram {key!r}: bucket layouts differ")
        count = ha["count"] + hb["count"]
        merged = {
            "count": count,
            "sum": ha["sum"] + hb["sum"],
            "min": min(ha["min"], hb["min"]) if ha["count"] and hb["count"] else (ha if ha["count"] else hb)["min"],
            "max": max(ha["max"], hb["max"]) if ha["count"] and hb["count"] else (ha if ha["count"] else hb)["max"],
            "buckets": [x + y for x, y in zip(ha["buckets"], hb["buckets"])],
            "bounds": list(ha["bounds"]),
        }
        merged["mean"] = merged["sum"] / count if count else 0.0
        out["histograms"][key] = merged
    return out


def merge_many(snapshots: "list[dict] | tuple[dict, ...]") -> dict:
    """Fold any number of snapshots into one aggregate (left to right).

    The fleet-merge entry point: a coordinator collects one snapshot per
    partition and merges them into the single-registry view an unsharded
    run would have produced.  An empty list merges to an empty snapshot.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        out = merge_snapshots(out, snap)
    return out


def _quantize(value: float) -> float:
    """Collapse float-summation order noise (9 significant digits)."""
    return float(f"{value:.9g}")


def mergeable_view(snapshot: dict) -> dict:
    """The partition-invariant core of a snapshot.

    Sharding a simulation changes *how* metrics are accumulated, not what
    happened: per-partition registries merged with :func:`merge_many`
    must equal the single-registry run on every series that aggregates
    commutatively.  This view keeps exactly that subset:

    * counters -- sums, kept (quantized: float addition orders differ);
    * gauges -- ``min``/``max``/``sets`` kept, ``last`` dropped (which
      vehicle recorded last depends on registry interleaving);
    * histograms -- the :meth:`Histogram.state` fields kept, quantile
      estimates dropped (P-squared is order-sensitive; fleet partitions
      ship states and never compute estimates).

    The kernel's ``sim.queue_depth`` samples are not partition-invariant
    (the shared queue's depth is a property of the partitioning), so
    only a tracing recorder takes them; fleet partitions record metrics
    only and never ship that series.

    Two runs of the same fleet at different partition counts must produce
    byte-identical mergeable views -- that equality is asserted in CI.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in snapshot.get("counters", {}).items():
        out["counters"][key] = _quantize(value)
    for key, gauge in snapshot.get("gauges", {}).items():
        out["gauges"][key] = {
            "min": _quantize(gauge["min"]),
            "max": _quantize(gauge["max"]),
            "sets": gauge["sets"],
        }
    for key, hist in snapshot.get("histograms", {}).items():
        out["histograms"][key] = {
            "count": hist["count"],
            "sum": _quantize(hist["sum"]),
            "min": _quantize(hist["min"]),
            "max": _quantize(hist["max"]),
            "mean": _quantize(hist["mean"]),
            "buckets": list(hist["buckets"]),
            "bounds": list(hist["bounds"]),
        }
    return out


class Summary:
    """Streaming summary of a scalar metric (latencies, losses, ...).

    Formerly ``repro.metrics.Summary``.  Samples are retained, but the
    numpy array backing mean/percentile queries is materialized once per
    batch of records and cached -- long drive scenarios query percentiles
    every tick, and re-building the array per call was quadratic.
    """

    def __init__(self, name: str, samples: list[float] | None = None):
        self.name = name
        self.samples: list[float] = [float(v) for v in samples] if samples else []
        self._cache: np.ndarray | None = None

    def record(self, value: float) -> None:
        self.samples.append(float(value))
        self._cache = None

    def _array(self) -> np.ndarray:
        if self._cache is None or len(self._cache) != len(self.samples):
            self._cache = np.asarray(self.samples, dtype=float)
        return self._cache

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self._array())) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return float(np.max(self._array())) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return float(np.percentile(self._array(), q)) if self.samples else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def row(self) -> dict:
        """A report row (what the benches print)."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


class Timeline:
    """(time, value) series, e.g. pipeline choice or loss over a drive.

    Formerly ``repro.metrics.Timeline``.
    """

    def __init__(self, name: str, times=None, values=None):
        self.name = name
        self.times: list[float] = list(times) if times else []
        self.values: list = list(values) if values else []

    def record(self, time_s: float, value) -> None:
        if self.times and time_s < self.times[-1]:
            raise ValueError("timeline must be recorded in time order")
        self.times.append(float(time_s))
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def changes(self) -> int:
        """Number of times the value switched."""
        return sum(1 for a, b in zip(self.values, self.values[1:]) if a != b)
