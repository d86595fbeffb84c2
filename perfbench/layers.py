"""Per-layer accounting, measured from outside the program.

Everything here observes ``repro`` without editing it:

* :func:`fold` sums profiler self time by ``repro`` subpackage, and
  :func:`summarize` takes the time blocked on a pipe out of it;
* :func:`call_counts` reads how often public entry points ran from the
  same profile;
* :class:`Spans` and :func:`timed` time calls across layer boundaries,
  and :func:`union_s` / :func:`self_time_s` turn overlapping spans into
  covered and self time;
* :func:`installed` swaps wrappers in for the duration of a traced run
  and always puts the originals back;
* :class:`FleetTap` is the coordinator-side view of a process fleet,
  and :class:`ProfiledWorker` profiles each partition worker in its own
  process and leaves a summary file for the parent.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

#: Every ``repro`` subpackage, each its own self-time bucket.  The
#: ``scenarios`` DSL folds into ``scenario`` with ``scenario.py``.
REPRO_LAYERS = (
    "sim", "obs", "vcu", "hw", "edgeos", "offload", "analysis", "fleet",
    "net", "nn", "vision", "ddi", "topology", "scenario", "apps",
    "workloads", "faults", "libvdap",
)
#: ``builtins`` is C code (profiler file ``~``); ``other`` is every other
#: Python file: the standard library, numpy's Python layer, this benchmark
#: and ``repro``'s own top-level modules.
SELF_LAYERS = REPRO_LAYERS + ("builtins", "other")
_ALIASES = {"scenarios": "scenario"}

#: Public entry points whose call counts the traced run reports.
COUNTED_CALLS = (
    "sim.queue_push_calls",
    "sim.queue_pop_calls",
    "obs.record_calls",
    "obs.histogram_observe_calls",
    "vcu.dsf_submit_calls",
    "edgeos.choose_calls",
    "offload.executor_submit_calls",
    "ddi.collect_calls",
)

#: The standard-library frames (file, function) whose C calls block on a
#: pipe peer: the coordinator's deadline poll (``Connection.poll`` goes
#: through a selector) and a worker's blocking ``Connection.recv``.
WAIT_CALLERS = {("selectors.py", "select"), ("connection.py", "_recv")}


def layer_of(filename: str, repro_root: str) -> str:
    """The self-time bucket of one profiled code location."""
    if filename == "~":
        return "builtins"
    prefix = repro_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "other"
    head = filename[len(prefix):].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    head = _ALIASES.get(head, head)
    return head if head in REPRO_LAYERS else "other"


def fold(stats: dict, repro_root: str) -> dict[str, float]:
    """Sum self time by layer over a ``pstats.Stats(...).stats`` mapping."""
    out = dict.fromkeys(SELF_LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, self_s, _cum, _callers) in stats.items():
        out[layer_of(filename, repro_root)] += self_s
    return out


def code_key(function: Callable) -> tuple[str, int, str]:
    """The key a profiler files ``function``'s calls under."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def entry_points() -> dict[str, tuple[Callable, ...]]:
    """The functions behind each :data:`COUNTED_CALLS` name."""
    from repro.ddi.service import DDIService
    from repro.edgeos.elastic import ElasticManager
    from repro.obs.metrics import Histogram
    from repro.obs.recorder import Collector
    from repro.offload.executor import DistributedExecutor
    from repro.sim.queues import QUEUE_BACKENDS
    from repro.vcu.dsf import DSF

    backends = tuple(QUEUE_BACKENDS.values())
    return {
        "sim.queue_push_calls": tuple(b.push for b in backends),
        "sim.queue_pop_calls": tuple(b.pop for b in backends),
        "obs.record_calls": (
            Collector.count, Collector.observe, Collector.observe_batch,
            Collector.gauge,
        ),
        "obs.histogram_observe_calls": (
            Histogram.observe, Histogram.observe_many,
        ),
        "vcu.dsf_submit_calls": (DSF.submit,),
        "edgeos.choose_calls": (ElasticManager.choose,),
        "offload.executor_submit_calls": (DistributedExecutor.submit,),
        "ddi.collect_calls": (DDIService.collect_all,),
    }


def call_counts(stats: dict) -> dict[str, int]:
    """Calls into each :data:`COUNTED_CALLS` entry point in one profile."""
    out = {}
    for name, functions in entry_points().items():
        out[name] = sum(
            stats[key][1] for key in map(code_key, functions) if key in stats
        )
    return out


def pipe_wait_s(stats: dict) -> float:
    """Self time of the C calls a process makes from :data:`WAIT_CALLERS`."""
    total = 0.0
    for (filename, _line, _name), (*_counts, callers) in stats.items():
        if filename != "~":
            continue
        for (caller_file, _l, caller), (_cc, _nc, self_s, _cum) in callers.items():
            if (os.path.basename(caller_file), caller) in WAIT_CALLERS:
                total += self_s
    return total


def summarize(profiler: cProfile.Profile, wall_s: float) -> dict[str, Any]:
    """One process's traced run: self time by layer, counts, busy time.

    Time blocked on a pipe peer is waiting, not work: it is taken out of
    ``builtins`` and out of the wall time, and kept as ``wait_s``.
    """
    import repro

    stats = pstats.Stats(profiler).stats
    self_s = fold(stats, os.path.dirname(repro.__file__))
    wait_s = pipe_wait_s(stats)
    self_s["builtins"] -= wait_s
    return {
        "self_s": self_s,
        "calls": call_counts(stats),
        "wall_s": wall_s - wait_s,
        "wait_s": wait_s,
    }


def add_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-process summaries (coordinator plus workers) field by field."""
    total: dict[str, Any] = {
        "self_s": dict.fromkeys(SELF_LAYERS, 0.0),
        "calls": dict.fromkeys(COUNTED_CALLS, 0),
        "wall_s": 0.0,
        "wait_s": 0.0,
    }
    for summary in summaries:
        for key in ("self_s", "calls"):
            for name, value in summary[key].items():
                total[key][name] += value
        total["wall_s"] += summary["wall_s"]
        total["wait_s"] += summary["wait_s"]
    return total


# -- spans -----------------------------------------------------------------


def union_s(intervals: Iterable[tuple[float, float]]) -> float:
    """Seconds covered by at least one interval (overlaps count once)."""
    covered = 0.0
    end_so_far = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_so_far:
            continue
        covered += end - max(start, end_so_far)
        end_so_far = end
    return covered


def self_time_s(span: tuple[float, float],
                children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    start, end = span
    inside = [
        (max(start, s), min(end, e)) for s, e in children if e > start and s < end
    ]
    return (end - start) - union_s(inside)


class Spans:
    """Wall-clock intervals recorded around calls, grouped by name."""

    def __init__(self) -> None:
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def add(self, name: str, start: float, end: float) -> None:
        self.intervals[name].append((start, end))

    def covered_s(self, *names: str) -> float:
        return union_s(iv for name in names for iv in self.intervals[name])


def timed(spans: Spans, name: str, function: Callable) -> Callable:
    """``function``, recording a span named ``name`` around every call."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spans.add(name, start, time.perf_counter())

    return wrapper


Patch = tuple[Any, str, Any]


@contextlib.contextmanager
def installed(patches: Iterable[Patch]) -> Iterator[None]:
    """Set ``owner.attr = replacement`` for each patch; always undo it."""
    undo: list[Patch] = []
    try:
        for owner, attr, replacement in patches:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- the process fleet -----------------------------------------------------


class FleetTap:
    """Coordinator-side spans of a process fleet, from its pipe traffic.

    Wraps :class:`repro.fleet.PipeEndpoint` ``send``/``recv`` and
    :meth:`repro.fleet.FleetCoordinator.run`.  A round runs from the
    first ``AdvanceCmd`` sent for it to the last ``RoundAck`` received
    for it; the finish phase runs from the first ``FinishCmd`` to the
    return of ``run``.
    """

    def __init__(self) -> None:
        self.spans = Spans()
        self.round_start: dict[tuple[int, int], float] = {}
        self.round_end: dict[tuple[int, int], float] = {}
        self.finish_start: list[float] = []
        self._runs = 0

    def patches(self) -> list[Patch]:
        from repro.fleet import FleetCoordinator, PipeEndpoint

        return [
            (PipeEndpoint, "send", self._send(PipeEndpoint.send)),
            (PipeEndpoint, "recv", self._recv(PipeEndpoint.recv)),
            (FleetCoordinator, "run", self._run(FleetCoordinator.run)),
        ]

    def _send(self, original: Callable) -> Callable:
        from repro.fleet import AdvanceCmd, FinishCmd

        def send(endpoint, message):
            start = time.perf_counter()
            if isinstance(message, AdvanceCmd):
                self.round_start.setdefault((self._runs, message.round_index), start)
            elif isinstance(message, FinishCmd) and len(self.finish_start) < self._runs:
                self.finish_start.append(start)
            try:
                return original(endpoint, message)
            finally:
                self.spans.add("send", start, time.perf_counter())

        return send

    def _recv(self, original: Callable) -> Callable:
        from repro.fleet import RoundAck

        def recv(endpoint, deadline_s):
            start = time.perf_counter()
            message = original(endpoint, deadline_s)
            end = time.perf_counter()
            self.spans.add("recv", start, end)
            if isinstance(message, RoundAck):
                self.round_end[(self._runs, message.round_index)] = end
            return message

        return recv

    def _run(self, original: Callable) -> Callable:
        def run(coordinator):
            self._runs += 1
            start = time.perf_counter()
            try:
                return original(coordinator)
            finally:
                self.spans.add("run", start, time.perf_counter())

        return run

    def coordinator_self_s(self) -> float:
        """Time in ``run`` not spent sending to or waiting on a pipe."""
        children = self.spans.intervals["send"] + self.spans.intervals["recv"]
        return sum(
            self_time_s(run, children) for run in self.spans.intervals["run"]
        )

    def round_ms(self) -> list[float]:
        return [
            (self.round_end[key] - start) * 1e3
            for key, start in sorted(self.round_start.items())
            if key in self.round_end
        ]

    def finish_merge_s(self) -> float:
        runs = self.spans.intervals["run"]
        return sum(end - start for start, (_s, end) in zip(self.finish_start, runs))


class _SummaryOnFinish:
    """A worker's pipe end that writes its profile before the last reply.

    The coordinator terminates workers as soon as it holds every
    ``FinishAck``, so the summary must be on disk before that ack leaves.
    """

    def __init__(self, conn, on_finish: Callable[[], None]):
        self._conn = conn
        self._on_finish = on_finish

    def send(self, message) -> None:
        from repro.fleet import FinishAck

        if isinstance(message, FinishAck):
            self._on_finish()
        self._conn.send(message)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


class ProfiledWorker:
    """Stands in for ``partition_worker_main`` during a traced run.

    Installed in the parent before the coordinator forks, so each child
    runs this object: it profiles the real entry point and writes a
    :func:`summarize` JSON file under ``out_dir`` just before its
    ``FinishAck``.  Needs the ``fork`` start method (the fleet default),
    since the object is inherited rather than pickled.
    """

    def __init__(self, original: Callable, out_dir: str):
        self.original = original
        self.out_dir = out_dir

    def __call__(self, conn, spec) -> None:
        sys.setprofile(None)  # drop the parent's profiler inherited by fork
        profiler = cProfile.Profile()
        start = time.perf_counter()

        def write_summary() -> None:
            profiler.disable()
            summary = summarize(profiler, time.perf_counter() - start)
            path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
            with open(path + ".part", "w", encoding="utf-8") as fh:
                json.dump(summary, fh)
            os.replace(path + ".part", path)

        profiler.enable()
        try:
            self.original(_SummaryOnFinish(conn, write_summary), spec)
        finally:
            profiler.disable()

    def collect(self) -> list[dict[str, Any]]:
        """Read and delete the summaries the workers left."""
        summaries = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.out_dir, name)
                with open(path, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
                os.remove(path)
        return summaries
