"""Sim-time span tracer with Chrome ``trace_event`` export.

Spans are stamped from an injected clock (the simulator's, in practice)
-- never the wall clock -- so a trace is a pure function of the run and
two identical-seed runs export byte-identical JSON.

Two event shapes cover what the platform records:

* **Async spans** (:meth:`SpanTracer.async_span`): sim processes overlap
  freely, so each lifetime is exported as a ``"b"``/``"e"`` async pair
  with its own id; Perfetto lays overlapping spans out side by side.
* **Instants** (:meth:`SpanTracer.instant`): zero-duration markers such
  as a pipeline switch or a fault.

Open the export at https://ui.perfetto.dev (or chrome://tracing): one
named track per subsystem, sim seconds on the time axis (exported as
microseconds, the format's native unit).
"""

from __future__ import annotations

import json
from typing import Callable

__all__ = ["SpanTracer"]

#: Synthetic process id for the whole platform (one sim = one "process").
TRACE_PID = 1


class SpanTracer:
    """Accumulates trace events against an injected (sim) clock."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.events: list[dict] = []
        self._track_tids: dict[str, int] = {}
        self._async_seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def _tid(self, track: str) -> int:
        """Stable per-track thread id; first use emits the naming metadata."""
        tid = self._track_tids.get(track)
        if tid is None:
            tid = len(self._track_tids) + 1
            self._track_tids[track] = tid
            self.events.append(
                {
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid

    # -- recording ---------------------------------------------------------

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        """Record a possibly-overlapping span (a sim process lifetime)."""
        self._async_seq += 1
        ident = f"0x{self._async_seq:x}"
        tid = self._tid(track)
        begin = {
            "ph": "b",
            "pid": TRACE_PID,
            "tid": tid,
            "name": name,
            "cat": track,
            "id": ident,
            "ts": start_s * 1e6,
        }
        if args:
            begin["args"] = args
        self.events.append(begin)
        self.events.append(
            {
                "ph": "e",
                "pid": TRACE_PID,
                "tid": tid,
                "name": name,
                "cat": track,
                "id": ident,
                "ts": end_s * 1e6,
            }
        )

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        """Record a zero-duration marker (a pipeline switch, a fault)."""
        event = {
            "ph": "i",
            "pid": TRACE_PID,
            "tid": self._tid(track),
            "name": name,
            "cat": track,
            "ts": (self.clock() if ts is None else ts) * 1e6,
            "s": "t",
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` document (Perfetto-loadable)."""
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def to_json(self, indent: int | None = None) -> str:
        """Stable JSON export (event order is emission order, sorted keys)."""
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)
