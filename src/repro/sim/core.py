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

import itertools
from typing import Any, Callable, Generator, Iterable, NamedTuple, Optional

from ..obs.recorder import NULL_RECORDER, Recorder
from .queues import HeapQueue

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Race",
    "Interrupt",
    "KernelCheckpoint",
    "Simulator",
    "SimulationError",
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
    """

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
    def ok(self) -> bool:
        return self._triggered and self._exception is None

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

    def _resolve(self) -> None:
        """Run callbacks; called by the event loop when this event fires."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or []:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, sim: "Simulator", delay_s: float, value: Any = None):
        if not delay_s >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay_s}")
        super().__init__(sim)
        self.delay_s = delay_s
        self._value = value
        self._triggered = True
        sim._schedule_event(self, delay=delay_s)


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The process's return value (via ``return`` in the generator) becomes the
    event value, so ``result = yield sim.process(...)`` works.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The name with per-invocation suffixes stripped (label-safe).
        self.short_name = self.name.split("@", 1)[0]
        self._waiting_on: Optional[Event] = None
        self._spawned_at = sim.now
        # Bootstrap: step the generator at the current time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._step)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        wake = Event(self.sim)
        wake.callbacks.append(lambda _evt: self._step_throw(Interrupt(cause)))
        wake.succeed()

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
            name = self.short_name
            pending = sim._pending_completions
            pending[name] = pending.get(name, 0) + 1

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
            name = self.short_name
            pending = sim._pending_steps
            pending[name] = pending.get(name, 0) + 1
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
        if yielded.processed:
            # Already fired: resume on the next loop iteration at current time.
            relay = Event(self.sim)
            relay._triggered = True
            relay._value = yielded._value
            relay._exception = yielded._exception
            relay.callbacks.append(self._step)
            self.sim._schedule_event(relay)
        else:
            self._waiting_on = yielded
            yielded.callbacks.append(self._step)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events.

    A condition succeeds with ``{index: value}`` of its processed, ok
    children and fails with the first failing child's exception.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)

    def _results(self) -> dict:
        return {
            i: evt._value
            for i, evt in enumerate(self.events)
            if evt.processed and evt._exception is None
        }


class AnyOf(_Condition):
    """Fires when any constituent event has fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._results())


class AllOf(_Condition):
    """Fires when all constituent events have fired.

    Counts the distinct children still to fire rather than rescanning the
    list on every callback.  A child listed twice fires once, so it is
    counted and called back once.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events)
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

    Unlike :class:`AnyOf`, a race identifies *which* constituent fired
    first, which is what retry loops need to distinguish "work finished"
    from "deadline elapsed" or "component failed".  If the winning event
    failed, the race fails with the same exception.  Later events are left
    untouched (a Timeout that loses simply fires into the void).
    """

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


class KernelCheckpoint(NamedTuple):
    """Barrier-aligned kernel state digest: where a run stands right now.

    Cheap enough to take at every time-sync barrier; the fleet substrate
    ships one per round so a coordinator can sanity-check progress
    (monotonic time, monotonic event count) without seeing the queue.
    """

    time: float
    events_fired: int
    queue_depth: int
    next_event_s: float


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

    Trace taps (:meth:`add_trace_tap`) are the first-class export hook for
    event-trace hashing: each tap is called as ``tap(event, when)`` for
    every event the loop fires, in firing order.  Zero-cost when no tap is
    installed (one truthiness check per event).
    """

    def __init__(self, obs: Recorder | None = None):
        self._now = 0.0
        self._queue = HeapQueue()
        self._counter = itertools.count()
        self._stopped = False
        self._running = False
        self._fired = 0
        self._taps: list[Callable[[Event, float], None]] = []
        # Per-run accounting the loop batches and flushes through ``obs``
        # once per run()/step() instead of per event (see _flush_pending).
        self._pending_steps: dict[str, int] = {}
        self._pending_completions: dict[str, int] = {}
        self._flush_hooks: list[Callable[[Recorder], None]] = []
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER
        if obs is not None:
            obs.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        return self._now

    @property
    def running(self) -> bool:
        """True while :meth:`run` or :meth:`step` is firing events, i.e.
        when the caller is a sim process or an event callback."""
        return self._running

    @property
    def events_fired(self) -> int:
        """Total events the loop has fired since construction."""
        return self._fired

    # -- trace taps --------------------------------------------------------

    def add_trace_tap(self, tap: Callable[[Event, float], None]) -> None:
        """Install a per-fired-event callback ``tap(event, when)``.

        Taps observe the canonical firing order (the determinism
        contract's event trace); they must not schedule events or mutate
        simulation state.
        """
        self._taps.append(tap)

    def remove_trace_tap(self, tap: Callable[[Event, float], None]) -> None:
        """Uninstall a previously added tap (ValueError if absent)."""
        self._taps.remove(tap)

    def checkpoint(self) -> KernelCheckpoint:
        """A :class:`KernelCheckpoint` of the loop's current state."""
        return KernelCheckpoint(
            time=self._now,
            events_fired=self._fired,
            queue_depth=len(self._queue),
            next_event_s=self.peek(),
        )

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

    def stop(self) -> None:
        """Halt :meth:`run` after the current event finishes."""
        self._stopped = True

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue.peek()

    def add_flush_hook(self, hook: Callable[[Recorder], None]) -> None:
        """Register a batched-accounting flush callback.

        Subsystems that accumulate per-event observations locally (e.g.
        the DSF's per-task exec/energy accounting) register a hook; the
        kernel invokes every hook once per :meth:`run` / :meth:`step`,
        after its own pending accounting, so deferred metrics land in the
        recorder before any post-run export or snapshot.
        """
        self._flush_hooks.append(hook)

    def _flush_pending(self, obs: Recorder) -> None:
        """Fold batched per-process accounting into the recorder.

        Counter sums are order-independent, but flush in sorted name
        order anyway so the flush itself is deterministic.
        """
        steps = self._pending_steps
        if steps:
            for name in sorted(steps):
                obs.count("sim.process_steps", steps[name], process=name)
            steps.clear()
        completions = self._pending_completions
        if completions:
            for name in sorted(completions):
                obs.count("sim.processes_completed", completions[name], process=name)
            completions.clear()
        for hook in self._flush_hooks:
            hook(obs)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or stop().

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
        self._stopped = False
        obs = self.obs
        record = obs.enabled
        sample_depth = record and obs.tracing
        queue = self._queue
        taps = self._taps
        fired = 0
        depths: list[int] = []
        self._running = True
        try:
            while queue and not self._stopped:
                when = queue.peek()
                if until is not None and when > until:
                    break
                event = queue.pop()[2]
                self._now = when
                fired += 1
                if sample_depth:
                    depths.append(len(queue))
                if taps:
                    for tap in taps:
                        tap(event, when)
                event._resolve()
        finally:
            self._running = False
            self._fired += fired
            if record and fired:
                obs.count("sim.events_fired", fired)
                if sample_depth:
                    obs.observe_batch("sim.queue_depth", depths)
            if record:
                self._flush_pending(obs)
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def run_to_barrier(self, barrier_s: float) -> KernelCheckpoint:
        """Barrier-aligned run: advance exactly to ``barrier_s``.

        The conservative-time-sync primitive: fires every event at
        ``t <= barrier_s``, leaves the clock pinned at the barrier even if
        no event lands there, and returns a :class:`KernelCheckpoint`
        taken at the barrier.  Unlike :meth:`run`, a barrier in the past
        is always an error (a coordinator must never rewind a partition).
        """
        if barrier_s < self._now:
            raise SimulationError(
                f"barrier {barrier_s} is behind the clock (now={self._now})"
            )
        self.run(until=barrier_s)
        return self.checkpoint()

    def step(self) -> float:
        """Process exactly one event; returns the new time.

        Records what :meth:`run` records for the same event (the event
        count and, on a tracing recorder, the queue-depth sample), so a
        schedule's metrics do not depend on which method fired it.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = self._queue.pop()
        self._now = when
        self._fired += 1
        obs = self.obs
        if obs.enabled:
            obs.count("sim.events_fired")
            if obs.tracing:
                obs.observe("sim.queue_depth", len(self._queue))
        if self._taps:
            for tap in self._taps:
                tap(event, when)
        self._running = True
        try:
            event._resolve()
        finally:
            self._running = False
        if obs.enabled:
            self._flush_pending(obs)
        return self._now
