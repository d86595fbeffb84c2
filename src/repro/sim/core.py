"""Deterministic discrete-event simulation kernel.

This is the substrate every other subsystem runs on.  It provides a
SimPy-flavoured programming model -- generator-based processes that yield
events -- implemented from scratch so the whole platform is dependency-free
and fully deterministic: events that share a timestamp fire in the order
they were scheduled.

Typical usage::

    sim = Simulator()

    def driver(sim):
        yield sim.timeout(1.0)
        result = yield sim.process(worker(sim))
        return result

    proc = sim.process(driver(sim))
    sim.run()
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from array import array
from functools import partial
from typing import Any, Callable, Generator, Iterable, NamedTuple, Optional

from ..obs.recorder import NULL_RECORDER, Recorder
from .queues import HeapQueue

__all__ = [
    "Divergence",
    "Event",
    "EventTrace",
    "Timeout",
    "TraceRecord",
    "Process",
    "AllOf",
    "Race",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "raise_failure",
]


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (e.g. running time backwards)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until :meth:`succeed` or :meth:`fail` is called,
    after which its callbacks are scheduled on the event loop.  Events carry
    a ``value`` (the result handed to waiters) and may hold an exception if
    they failed.

    ``_label`` is what an :class:`EventTrace` records when it fires:
    ``"kind|name\\n"``, the kind being the class name (set per subclass).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered")
    _label = "Event|\n"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A class that defines its own ``_label`` keeps it: Process slots
        # one per instance, which a class attribute would overwrite.
        if "_label" not in cls.__dict__:
            cls._label = f"{cls.__name__}|\n"

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once a value/exception is set and the firing is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event loop has fired this event's callbacks."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before it triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    def settle(self, value: Any = None) -> "Event":
        """Succeed with ``value``, with no kernel entry if nothing waits yet.

        With no callback registered, the event is ``processed`` at once:
        a process that yields it later resumes through the relay at that
        same instant, and an :class:`AllOf` or :class:`Race` built on it
        reads its value.  Otherwise this is :meth:`succeed`.
        """
        if self.callbacks:
            return self.succeed(value)
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.callbacks = None
        return self

    def _resolve(self) -> None:
        """Run callbacks; called by the event loop when this event fires."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or []:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay_s",)

    def __init__(self, sim: "Simulator", delay_s: float, value: Any = None):
        if not delay_s >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay_s}")
        super().__init__(sim)
        self.delay_s = delay_s
        self._value = value
        self._triggered = True
        sim._schedule_event(self, delay=delay_s)


class _Call:
    """A bare queue entry that calls ``_resolve()`` at ``now``, after what
    is queued, traced as an unnamed ``Event``; :meth:`Simulator.call_soon`
    queues one.  A process's start, its resumption on an already-processed
    event and an interrupt's delivery each fire one, and none costs an
    :class:`Event`."""

    __slots__ = ("_resolve",)
    _label = "Event|\n"

    def __init__(self, resolve: Callable[[], None]):
        self._resolve = resolve


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The process's return value (via ``return`` in the generator) becomes the
    event value, so ``result = yield sim.process(...)`` works.
    """

    __slots__ = ("generator", "name", "_label", "_waiting_on", "_spawned_at")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._label = f"Process|{self.name}\n"
        self._waiting_on: Optional[Event] = None
        self._spawned_at = sim.now
        sim.call_soon(self._step)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self.sim.call_soon(partial(self._step_throw, Interrupt(cause)))

    def try_interrupt(self, cause: Any = None) -> bool:
        """Interrupt the process if it is still alive; no-op otherwise.

        Supervisor and watchdog paths race their deadline against the work
        they guard, and both can fire in the same event round -- a process
        that finished just before its supervisor's timeout is not an error.
        Returns True if the interrupt was delivered, False if the process
        had already finished.
        """
        if self.triggered:
            return False
        self.interrupt(cause)
        return True

    # -- internal stepping ------------------------------------------------

    def _detach(self) -> None:
        target = self._waiting_on
        if (
            target is not None
            and target.callbacks is not None
            and self._step in target.callbacks
        ):
            target.callbacks.remove(self._step)
        self._waiting_on = None

    def _record_completion(self, ok: bool) -> None:
        """Span the process lifetime into the recorder (no-op when null)."""
        sim = self.sim
        obs = sim.obs
        if obs.enabled:
            if obs.tracing:
                obs.async_span(
                    self.name, self._spawned_at, sim.now,
                    track="sim.process", ok=ok,
                )
            pending = sim._pending_completions
            pending[self.name] = pending.get(self.name, 0) + 1

    def _step_throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._detach()
        try:
            yielded = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            self._record_completion(ok=True)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self.fail(err)
            self._record_completion(ok=False)
            return
        self._wait_on(yielded)

    def _step(self, trigger: Optional[Event] = None) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        sim = self.sim
        if sim.obs.enabled:
            pending = sim._pending_steps
            pending[self.name] = pending.get(self.name, 0) + 1
        try:
            if trigger is not None and trigger._exception is not None:
                yielded = self.generator.throw(trigger._exception)
            else:
                send_value = None if trigger is None else trigger._value
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            self._record_completion(ok=True)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self.fail(err)
            self._record_completion(ok=False)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if not isinstance(yielded, Event):
            self._step_throw(
                SimulationError(f"process {self.name} yielded non-event: {yielded!r}")
            )
            return
        self._waiting_on = yielded
        if yielded.processed:
            # Already fired: resume with its outcome at the current time.
            self.sim.call_soon(partial(self._relay, yielded))
        else:
            yielded.callbacks.append(self._step)

    def _relay(self, trigger: Event) -> None:
        # An interrupt delivered since the relay was queued detached the
        # process; it may be waiting on something else by now.
        if self._waiting_on is trigger:
            self._step(trigger)


def raise_failure(event: Event) -> None:
    """Re-raise a failed event's exception out of ``sim.run``.

    The callback for a process nothing waits on (a drive loop, a fault
    plan's replay, a watchdog's pulse): without it, the process's
    failure sits unread on it and the run ends as if it had finished.
    """
    if event._exception is not None:
        raise event._exception


class AllOf(Event):
    """Fires when all constituent events have fired.

    Succeeds with ``{index: value}`` of its children and fails with the
    first failing child's exception.  Counts the distinct children still
    to fire rather than rescanning the list on every callback.  A child
    listed twice fires once, so it is counted and called back once.
    """

    __slots__ = ("events", "_waiting")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        waiting: dict[int, Event] = {}
        for event in self.events:
            if not event.processed:
                waiting[id(event)] = event
            elif event._exception is not None and not self.triggered:
                self.fail(event._exception)
        self._waiting = len(waiting)
        for event in waiting.values():
            event.callbacks.append(self._on_child)
        if not self.triggered and not self._waiting:
            self.succeed(self._results())

    def _results(self) -> dict:
        return {
            i: evt._value
            for i, evt in enumerate(self.events)
            if evt.processed and evt._exception is None
        }

    def _on_child(self, event: Event) -> None:
        self._waiting -= 1
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        if not self._waiting:
            self.succeed(self._results())


class Race(Event):
    """First-event-wins composition: fires with ``(index, value)``.

    A race identifies *which* constituent fired first, which is what
    retry loops need to distinguish "work finished" from "deadline
    elapsed" or "component failed".  If the winning event
    failed, the race fails with the same exception.  Later events are left
    untouched (a Timeout that loses simply fires into the void).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SimulationError("race() needs at least one event")
        for index, event in enumerate(self.events):
            if self.triggered:
                break
            if event.processed:
                self._settle(index, event)
            else:
                event.callbacks.append(
                    lambda evt, i=index: self._settle(i, evt)
                )

    def _settle(self, index: int, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed((index, event._value))


#: A run() folds its trace every 4096 events (fired & mask == 0).
_FOLD_MASK = 4095
_BIG_ENDIAN = sys.byteorder == "big"


class TraceRecord(NamedTuple):
    """One fired event of a kept :class:`EventTrace`."""

    seq: int
    time: float
    kind: str
    name: str

    def text(self) -> str:
        return f"#{self.seq} t={self.time!r} {self.kind}({self.name})"


class Divergence(NamedTuple):
    """The first point where two traces disagree (None past a trace's end)."""

    index: int
    left: Optional[TraceRecord]
    right: Optional[TraceRecord]

    def explain(self) -> str:
        left = self.left.text() if self.left else "<trace ended>"
        right = self.right.text() if self.right else "<trace ended>"
        return f"first divergence at event {self.index}: {left} != {right}"


class EventTrace:
    """The kernel's own record of the events it fires, as packed data.

    The loop appends each fired event's time to :attr:`times` (an
    ``array('d')``) and its ``_label`` to :attr:`labels`, with no Python
    call per event.  :meth:`fold`, run at the end of every run() and
    every 4096 events, hashes the buffers into two streaming BLAKE2b
    digests -- the times' little-endian IEEE-754 bytes, the label text --
    and empties them; so the digest covers the order, time bits, kind and
    name of every event, whenever folds happen.  ``keep`` moves folded
    events to :attr:`kept` (times, labels) instead of dropping them, which
    is what :meth:`diff` compares.
    """

    def __init__(self, keep: bool = False):
        self.times = array("d")
        self.labels: list[str] = []
        self.kept: tuple[array, list[str]] | None = (array("d"), []) if keep else None
        self.count = 0  # events folded
        self._digests = (hashlib.blake2b(digest_size=16), hashlib.blake2b(digest_size=16))

    def fold(self) -> None:
        """Hash the buffered events and empty the buffers."""
        times, labels = self.times, self.labels
        if not times:
            return
        if self.kept is not None:
            self.kept[0].extend(times)
            self.kept[1].extend(labels)
        if _BIG_ENDIAN:
            times.byteswap()
        self._digests[0].update(times)
        self._digests[1].update("".join(labels).encode())
        self.count += len(times)
        del times[:]
        labels.clear()

    def hexdigest(self) -> str:
        """Hex digest of every event recorded so far."""
        self.fold()
        times, labels = self._digests
        return hashlib.blake2b(times.digest() + labels.digest(), digest_size=16).hexdigest()

    def diff(self, other: "EventTrace") -> Optional[Divergence]:
        """The first event where two kept traces differ, or None.

        Times compare by their bits, as the digest sees them.  Traces
        without ``keep`` can still be compared by :meth:`hexdigest`.
        """
        if self.kept is None or other.kept is None:
            raise ValueError("diff() needs keep=True on both traces")
        self.fold()
        other.fold()
        left, right = self.kept, other.kept
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


class Simulator:
    """The event loop: a binary heap of (time, seq, event).

    ``obs`` installs an instrumentation recorder (see :mod:`repro.obs`):
    the kernel then counts events fired and per-process steps and, when
    the recorder traces, samples queue depth and spans every process
    lifetime onto the trace.  A metrics-only recorder (a fleet
    partition's) gets neither, because nothing downstream reads them.  The
    default is the shared no-op recorder, which costs one predicate per
    event.  Subsystems holding a simulator reference record through
    ``sim.obs``, so installing one collector instruments all of them.

    An attached :class:`EventTrace` (:meth:`attach_trace`) is the
    kernel's own record of every event it fires, in firing order, for
    trace hashing; with none attached the loop pays one ``is None`` test
    per event.
    """

    def __init__(self, obs: Recorder | None = None):
        self._now = 0.0
        self._queue = HeapQueue()
        self._counter = itertools.count()
        self._running = False
        self._fired = 0
        self._trace: EventTrace | None = None
        # Per-run accounting the loop batches and flushes through ``obs``
        # once per run() instead of per event (see _flush_pending).
        self._pending_steps: dict[str, int] = {}
        self._pending_completions: dict[str, int] = {}
        # Process name -> the counter its batch flushes into, held from
        # the name's first flush.
        self._step_series: dict[str, Any] = {}
        self._completion_series: dict[str, Any] = {}
        #: Values derived once per kernel and shared by every subsystem on
        #: it (a fleet partition runs all its vehicles on one kernel), e.g.
        #: compiled placement plans; they live as long as the simulator.
        self.memo: dict = {}
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER
        if obs is not None:
            obs.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        return self._now

    @property
    def running(self) -> bool:
        """True while :meth:`run` is firing events, i.e. when the caller
        is a sim process or an event callback."""
        return self._running

    @property
    def events_fired(self) -> int:
        """Total events the loop has fired since construction."""
        return self._fired

    # -- event trace -------------------------------------------------------

    def attach_trace(self, keep: bool = False) -> EventTrace:
        """Record every event fired from the next run() on (one trace per
        simulator, for its lifetime; see :class:`EventTrace` for ``keep``)."""
        if self._trace is not None:
            raise SimulationError("a trace is already attached")
        self._trace = EventTrace(keep)
        return self._trace

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay_s: float, value: Any = None) -> Timeout:
        return Timeout(self, delay_s, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def race(self, *events: Event) -> Race:
        """First-wins composition; yields ``(winner_index, winner_value)``."""
        return Race(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._queue.push(self._now + delay, next(self._counter), event)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Queue ``fn()`` to run at ``now``, after what is already queued.

        Each call is one kernel entry; a process's start, its relay and an
        interrupt's delivery take one.  Work that may run inside the
        current entry (a DSF dispatch, a slot grant) calls straight
        through instead."""
        self._queue.push(self._now, next(self._counter), _Call(fn))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue.peek()

    def _flush_pending(self, obs: Recorder) -> None:
        """Fold batched per-process accounting into the recorder.

        Counter sums are order-independent, but flush in sorted name
        order anyway so the flush itself is deterministic.
        """
        for metric, pending, held in (
            ("sim.process_steps", self._pending_steps, self._step_series),
            ("sim.processes_completed", self._pending_completions,
             self._completion_series),
        ):
            if pending:
                for name in sorted(pending):
                    series = held.get(name)
                    if series is None:
                        series = held[name] = obs.counter(metric, process=name)
                    series.inc(pending[name])
                pending.clear()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulation time at exit.  ``until`` is an absolute time;
        the clock is advanced to it even if no event lands exactly there.

        Kernel accounting (events fired, per-process step counts and, on
        a tracing recorder, queue-depth samples) is accumulated in locals
        and flushed to ``obs`` once at exit: the resulting metric values
        are exactly what per-event recording would produce, without
        per-event recorder calls.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run backwards: until={until} < now={self._now}")
        obs = self.obs
        record = obs.enabled
        sample_depth = record and obs.tracing
        queue = self._queue
        trace = self._trace
        if trace is not None:
            trace_time = trace.times.append
            trace_label = trace.labels.append
        fired = 0
        depths: list[int] = []
        self._running = True
        try:
            while queue:
                when = queue.peek()
                if until is not None and when > until:
                    break
                event = queue.pop()[2]
                self._now = when
                fired += 1
                if sample_depth:
                    depths.append(len(queue))
                if trace is not None:
                    trace_time(when)
                    trace_label(event._label)
                    if not fired & _FOLD_MASK:
                        trace.fold()
                event._resolve()
        finally:
            self._running = False
            if trace is not None:
                trace.fold()
            self._fired += fired
            if record and fired:
                obs.count("sim.events_fired", fired)
                if sample_depth:
                    obs.observe_batch("sim.queue_depth", depths)
            if record:
                self._flush_pending(obs)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
