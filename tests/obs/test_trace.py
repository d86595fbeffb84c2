"""Span tracer: async pairs, instants, track metadata, Chrome-trace JSON schema."""

import json

import pytest

from repro.obs import SpanTracer
from repro.obs.trace import TRACE_PID


class FakeClock:
    """A hand-cranked sim clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_async_spans_pair_begin_end_with_matching_ids():
    tracer = SpanTracer()
    tracer.async_span("proc-a", 0.0, 2.0, track="sim.process")
    tracer.async_span("proc-b", 1.0, 3.0, track="sim.process")  # overlaps a
    pairs = [e for e in tracer.events if e["ph"] in ("b", "e")]
    assert [e["ph"] for e in pairs] == ["b", "e", "b", "e"]
    assert pairs[0]["id"] == pairs[1]["id"] != pairs[2]["id"]
    assert pairs[2]["id"] == pairs[3]["id"]


def test_instant_uses_clock_unless_given_ts():
    clock = FakeClock()
    clock.now = 7.0
    tracer = SpanTracer(clock)
    tracer.instant("handoff", track="net")
    tracer.instant("fault", ts=2.0, track="net")
    instants = [e for e in tracer.events if e["ph"] == "i"]
    assert instants[0]["ts"] == pytest.approx(7e6)
    assert instants[1]["ts"] == pytest.approx(2e6)
    assert all(e["s"] == "t" for e in instants)


def test_track_metadata_emitted_once_per_track():
    tracer = SpanTracer()
    tracer.async_span("a", 0.0, 1.0, track="vcu")
    tracer.instant("b", ts=1.0, track="vcu")
    tracer.instant("c", ts=0.0, track="net")
    metas = [e for e in tracer.events if e["ph"] == "M"]
    assert [m["args"]["name"] for m in metas] == ["vcu", "net"]
    assert all(m["name"] == "thread_name" for m in metas)
    tids = {m["args"]["name"]: m["tid"] for m in metas}
    assert tids["vcu"] != tids["net"]


def test_chrome_trace_document_schema():
    tracer = SpanTracer(FakeClock())
    tracer.async_span("job", 0.0, 1.0, track="vcu", device="gpu")
    tracer.instant("mark")
    doc = json.loads(tracer.to_json())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    for event in doc["traceEvents"]:
        assert event["pid"] == TRACE_PID
        assert {"ph", "tid", "name"} <= set(event)
        if event["ph"] != "M":
            assert "ts" in event and "cat" in event
        if event["ph"] in ("b", "e"):
            assert event["id"].startswith("0x")


def test_trace_json_is_deterministic():
    def build():
        tracer = SpanTracer()
        tracer.async_span("p", 0.5, 1.5, track="t", k="v")
        tracer.async_span("q", 0.0, 0.25, track="t")
        tracer.instant("i", ts=2.0)
        return tracer.to_json()

    assert build() == build()
