"""Recorder facade: null sink semantics, Collector wiring, file export."""

import json
import timeit

import pytest

from repro.obs import NULL_RECORDER, Collector, Recorder


def test_null_recorder_is_disabled_and_silent():
    recorder = Recorder()
    assert recorder.enabled is False
    recorder.count("x")
    recorder.gauge("y", 1.0)
    recorder.observe("z", 0.5, device="gpu")
    recorder.async_span("p", 0.0, 1.0)
    recorder.instant("i")
    assert NULL_RECORDER.enabled is False


def test_noop_recorder_overhead_is_negligible():
    """The no-op hook must stay cheap enough to leave enabled everywhere.

    Smoke bound, not a benchmark: one guarded no-op call must cost well
    under a microsecond on any plausible machine (CI boxes included).
    """
    recorder = NULL_RECORDER

    def hook():
        if recorder.enabled:
            recorder.count("hot.path", n=1.0, device="gpu")

    per_call = min(timeit.repeat(hook, number=100_000, repeat=3)) / 100_000
    assert per_call < 5e-6


def test_collector_records_through_the_same_facade():
    collector = Collector()
    assert collector.enabled is True
    collector.count("jobs", n=2.0, tier="edge")
    collector.gauge("depth", 4.0)
    collector.observe("lat", 0.3)
    snap = collector.snapshot()
    assert snap["counters"]["jobs{tier=edge}"] == 2.0
    assert snap["gauges"]["depth"]["last"] == 4.0
    assert snap["histograms"]["lat"]["count"] == 1


def test_collector_bind_clock_feeds_tracer():
    times = iter([1.0, 3.5])
    collector = Collector()
    collector.bind_clock(lambda: next(times))
    collector.instant("first", track="sim")
    collector.instant("second", track="sim")
    stamps = [e["ts"] for e in collector.tracer.events if e["ph"] == "i"]
    assert stamps == [1e6, 3.5e6]


def test_collector_write_exports_both_artifacts(tmp_path):
    collector = Collector()
    collector.count("a")
    collector.instant("mark", ts=0.5)
    metrics_path, trace_path = collector.write(str(tmp_path / "obs"))
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert metrics["counters"]["a"] == 1.0
    assert any(e["ph"] == "i" for e in trace["traceEvents"])
    # Both files end with exactly one newline (byte-stable artifacts).
    for path in (metrics_path, trace_path):
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")


def test_metrics_only_collector_drops_spans_and_has_no_trace():
    import pytest

    collector = Collector(trace=False)
    assert collector.enabled is True and collector.tracing is False
    assert Collector().tracing is True and NULL_RECORDER.tracing is False
    collector.bind_clock(lambda: 2.0)
    collector.count("jobs")
    collector.async_span("p", 0.0, 1.0)
    collector.instant("mark")
    assert collector.tracer is None
    assert collector.snapshot()["counters"]["jobs"] == 1.0
    with pytest.raises(RuntimeError, match="metrics only"):
        collector.trace_json()


def test_kernel_samples_queue_depth_only_for_a_tracing_recorder():
    from repro.sim import Simulator

    def run(collector):
        sim = Simulator(obs=collector)

        def proc(sim):
            for _ in range(3):
                yield sim.timeout(1.0)

        sim.process(proc(sim), name="proc")
        sim.run()
        return collector.snapshot()

    traced = run(Collector())
    lean = run(Collector(trace=False))
    assert "sim.queue_depth" in traced["histograms"]
    assert "sim.queue_depth" not in lean["histograms"]
    # Every other kernel series is recorded the same either way.
    assert lean["counters"] == traced["counters"]
    assert lean["counters"]["sim.events_fired"] > 0


def test_cached_series_keeps_its_kind():
    collector = Collector()
    collector.count("x")
    collector.count("x")  # now served from the counter cache
    with pytest.raises(TypeError, match="already registered as Counter"):
        collector.gauge("x", 1.0)
    with pytest.raises(TypeError, match="already registered as Counter"):
        collector.observe("x", 1.0)
    assert collector.snapshot()["counters"]["x"] == 2.0


def test_label_order_lands_on_one_series():
    collector = Collector()
    collector.count("x", a=1, b=2)
    collector.count("x", b=2, a=1)
    collector.count("x", a="1", b="2")
    collector.count("x", b="2", a="1")
    collector.count("x", b="2", a="1")
    # Same values under other names are other series.
    collector.count("x", a="2", b="1")
    collector.count("x", a="1")
    collector.count("x", b="1")
    assert collector.snapshot()["counters"] == {
        "x{a=1,b=2}": 5.0, "x{a=2,b=1}": 1.0, "x{a=1}": 1.0, "x{b=1}": 1.0,
    }


def test_label_values_are_canonicalized_past_the_cache():
    collector = Collector()
    for _ in range(2):
        collector.count("x", k=1)
        collector.count("x", k="1")
    # Equal values that render differently stay distinct series.
    collector.count("x", k=True)
    collector.count("x", k=1.0)
    assert collector.snapshot()["counters"] == {
        "x{k=1}": 4.0, "x{k=True}": 1.0, "x{k=1.0}": 1.0,
    }


def test_unhashable_label_values_take_the_registry_path():
    collector = Collector()
    collector.count("x", k=[1])
    collector.count("x", k="[1]")
    collector.observe("h", 0.5, k={"a": 1})
    snap = collector.snapshot()
    assert snap["counters"] == {"x{k=[1]}": 2.0}
    assert snap["histograms"]["h{k={'a': 1}}"]["count"] == 1


def test_empty_batch_creates_no_series_even_after_caching():
    collector = Collector()
    collector.observe_batch("lat", [])
    assert collector.snapshot()["histograms"] == {}
    collector.observe_batch("lat", [0.1, 0.2])
    collector.observe_batch("lat", [])
    collector.observe_batch("other", [], device="gpu")
    assert list(collector.snapshot()["histograms"]) == ["lat"]
    assert collector.snapshot()["histograms"]["lat"]["count"] == 2


def test_held_series_is_the_one_count_and_observe_update():
    collector = Collector()
    jobs = collector.counter("jobs", tier="edge")
    latency = collector.histogram("lat", tier="edge")
    assert collector.counter("jobs", tier="edge") is jobs
    assert collector.histogram("lat", tier="edge") is latency
    collector.count("jobs", n=2.0, tier="edge")
    jobs.inc()
    collector.observe("lat", 0.25, tier="edge")
    latency.observe(0.5)
    snap = collector.snapshot()
    assert jobs.value == snap["counters"]["jobs{tier=edge}"] == 3.0
    assert latency.count == snap["histograms"]["lat{tier=edge}"]["count"] == 2
    assert latency.total == 0.75
    # A held series keeps its kind like a one-shot record does.
    with pytest.raises(TypeError, match="already registered as Counter"):
        collector.histogram("jobs", tier="edge")


def test_null_recorder_hands_out_one_series_that_ignores_records():
    counter = NULL_RECORDER.counter("jobs", tier="edge")
    histogram = Recorder().histogram("lat")
    assert counter is histogram
    counter.inc(2.0)
    counter.observe(0.5)
    histogram.inc()
    histogram.observe(0.5)
    assert not hasattr(counter, "value")
