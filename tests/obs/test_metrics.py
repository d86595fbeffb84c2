"""Metric primitives: counters, gauges, histograms, registry, snapshots."""

import json

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    P2Quantile,
    merge_snapshots,
)


def test_counter_accumulates_and_rejects_negative():
    counter = Counter("jobs")
    counter.inc()
    counter.inc(4.5)
    assert counter.value == pytest.approx(5.5)
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_tracks_last_min_max():
    gauge = Gauge("depth")
    for value in (3.0, 1.0, 7.0):
        gauge.set(value)
    snap = gauge.to_snapshot()
    assert snap == {"last": 7.0, "min": 1.0, "max": 7.0, "sets": 3}


def test_gauge_empty_snapshot_is_zeros():
    assert Gauge("x").to_snapshot() == {"last": 0.0, "min": 0.0, "max": 0.0, "sets": 0}


def test_registry_label_sets_are_distinct_series():
    registry = MetricRegistry()
    registry.counter("net.packets", link="lte").inc()
    registry.counter("net.packets", link="dsrc").inc(2)
    registry.counter("net.packets", link="lte").inc()
    snap = registry.snapshot()
    assert snap["counters"]["net.packets{link=lte}"] == 2.0
    assert snap["counters"]["net.packets{link=dsrc}"] == 2.0


def test_registry_label_order_is_canonical():
    registry = MetricRegistry()
    registry.counter("m", b="2", a="1").inc()
    registry.counter("m", a="1", b="2").inc()
    assert len(registry) == 1
    assert registry.snapshot()["counters"]["m{a=1,b=2}"] == 2.0


def test_registry_kind_conflict_raises():
    registry = MetricRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x", )


def test_snapshot_is_json_round_trippable():
    registry = MetricRegistry()
    registry.counter("a").inc(3)
    registry.gauge("b").set(1.5)
    registry.histogram("c").observe(0.2)
    text = registry.to_json()
    assert json.loads(text) == registry.snapshot()


# -- histograms ------------------------------------------------------------


def test_histogram_empty_snapshot():
    snap = Histogram("h").to_snapshot()
    assert snap["count"] == 0
    assert snap["min"] == 0.0 and snap["max"] == 0.0 and snap["mean"] == 0.0
    assert sum(snap["buckets"]) == 0
    assert snap["p50"] == 0.0


def test_histogram_single_sample():
    hist = Histogram("h", bounds=(0.1, 1.0, 10.0))
    hist.observe(0.5)
    snap = hist.to_snapshot()
    assert snap["count"] == 1
    assert snap["buckets"] == [0, 1, 0, 0]
    assert snap["min"] == snap["max"] == 0.5
    assert hist.quantile(0.5) == pytest.approx(0.5)


def test_histogram_out_of_range_goes_to_overflow_bucket():
    hist = Histogram("h", bounds=(0.1, 1.0))
    hist.observe(50.0)
    hist.observe(-3.0)  # below every bound: lands in the first bucket
    assert hist.bucket_counts == [1, 0, 1]
    assert hist.minimum == -3.0 and hist.maximum == 50.0


def test_histogram_bucket_edges_are_inclusive_upper():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(1.0)  # exactly on a bound: belongs to that bucket
    hist.observe(2.0)
    hist.observe(2.0001)
    assert hist.bucket_counts == [1, 1, 1]


def test_histogram_unsorted_bounds_rejected():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 0.5))


def test_histogram_default_buckets_cover_platform_latencies():
    hist = Histogram("h")
    assert hist.bounds == DEFAULT_BUCKETS
    hist.observe(0.003)
    hist.observe(45.0)
    assert hist.count == 2 and sum(hist.bucket_counts) == 2


def test_p2_quantile_matches_numpy_on_smooth_data():
    rng = np.random.default_rng(0)
    samples = rng.normal(10.0, 2.0, 4000)
    estimator = P2Quantile(0.95)
    for x in samples:
        estimator.add(float(x))
    assert estimator.value == pytest.approx(float(np.quantile(samples, 0.95)), rel=0.05)


def test_p2_quantile_exact_under_five_samples():
    estimator = P2Quantile(0.5)
    for x in (3.0, 1.0, 2.0):
        estimator.add(x)
    assert estimator.value == 2.0
    assert P2Quantile(0.5).value == 0.0
    with pytest.raises(ValueError):
        P2Quantile(1.0)


# -- batched observation: exact equivalence with per-sample observe ---------

#: Long-tailed latencies: enough samples that a pairwise ``np.sum`` or a
#: reordered estimator feed would change the last bits of ``sum``/``p99``.
_SAMPLES = np.random.default_rng(7).lognormal(-3.0, 1.5, 2503).tolist()


def _per_sample(values) -> dict:
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    return hist.to_snapshot()


def _batched(values, split: int) -> dict:
    hist = Histogram("h")
    for start in range(0, len(values), split):
        hist.observe_many(values[start:start + split])
    return hist.to_snapshot()


@pytest.mark.parametrize("split", [1, 4, 5, 6, 1000])
def test_observe_many_equals_per_sample_observe(split):
    expected = _per_sample(_SAMPLES)
    got = _batched(_SAMPLES, split)
    assert got == expected
    assert (got["sum"], got["p50"], got["p95"], got["p99"]) == (
        expected["sum"], expected["p50"], expected["p95"], expected["p99"])


@pytest.mark.parametrize("values", [
    [],
    [0.25],
    [3, 1, 4, 1, 5, 9, 2, 6],
    np.arange(-40, 60, 7),
    np.random.default_rng(3).normal(0.0, 2.0, 300).tolist(),
], ids=["empty", "single", "int-list", "int-array", "negative"])
def test_observe_many_edge_batches_equal_per_sample(values):
    hist = Histogram("h")
    hist.observe_many(values)
    assert hist.to_snapshot() == _per_sample(list(values))


def test_interleaved_observe_and_observe_many_equal_per_sample():
    hist = Histogram("h")
    cursor = 0
    for step, size in enumerate([1, 3, 5, 1, 6, 40, 1, 200, 2]):
        chunk = _SAMPLES[cursor:cursor + size]
        cursor += size
        if step % 2:
            hist.observe_many(chunk)
        else:
            for value in chunk:
                hist.observe(value)
    assert hist.to_snapshot() == _per_sample(_SAMPLES[:cursor])


def test_quantile_read_mid_stream_then_more_samples():
    hist = Histogram("h")
    hist.observe_many(_SAMPLES[:700])
    assert hist.to_snapshot() == _per_sample(_SAMPLES[:700])
    first_p95 = hist.quantile(0.95)
    hist.observe_many(_SAMPLES[700:1500])
    for value in _SAMPLES[1500:1503]:
        hist.observe(value)
    assert hist.to_snapshot() == _per_sample(_SAMPLES[:1503])
    assert hist.quantile(0.95) != first_p95


def test_untracked_quantile_raises():
    hist = Histogram("h", bounds=(1.0, 2.0, 3.0, 4.0))
    hist.observe_many([0.5, 1.5, 2.5, 3.5])
    for q in (0.75, 1.0, 1.5):
        with pytest.raises(ValueError, match="not tracked"):
            hist.quantile(q)


def test_registry_state_is_snapshot_without_estimates():
    registry = _loaded_registry()
    state, snap = registry.state(), registry.snapshot()
    hist = state["histograms"]["lat"]
    assert not {"p50", "p95", "p99"} & set(hist)
    assert {k: v for k, v in snap["histograms"]["lat"].items()
            if k in hist} == hist
    assert (state["counters"], state["gauges"]) == (
        snap["counters"], snap["gauges"])


def test_merging_states_matches_merging_snapshots():
    a, b = _loaded_registry(), _loaded_registry(extra=1.0)
    assert merge_snapshots(a.state(), b.state()) == merge_snapshots(
        a.snapshot(), b.snapshot())


# -- snapshot algebra ------------------------------------------------------


def _loaded_registry(extra: float = 0.0) -> MetricRegistry:
    registry = MetricRegistry()
    registry.counter("jobs", tier="edge").inc(3 + extra)
    registry.gauge("depth").set(2.0 + extra)
    hist = registry.histogram("lat", bounds=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value + extra)
    return registry


def test_merge_snapshots_round_trip():
    a = _loaded_registry().snapshot()
    b = _loaded_registry(extra=1.0).snapshot()
    merged = merge_snapshots(a, b)
    assert merged["counters"]["jobs{tier=edge}"] == 7.0
    hist = merged["histograms"]["lat"]
    assert hist["count"] == 6
    assert hist["sum"] == pytest.approx(a["histograms"]["lat"]["sum"]
                                        + b["histograms"]["lat"]["sum"])
    assert hist["min"] == 0.05 and hist["max"] == 6.0
    assert sum(hist["buckets"]) == 6
    gauge = merged["gauges"]["depth"]
    assert gauge == {"last": 3.0, "min": 2.0, "max": 3.0, "sets": 2}


def test_merged_histograms_carry_no_estimates():
    snap = _loaded_registry().snapshot()
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    state = _loaded_registry().state()["histograms"]["lat"]
    for merged in (merge_snapshots(snap, empty), merge_snapshots(snap, snap)):
        assert set(merged["histograms"]["lat"]) == set(state)


def test_merge_disjoint_series_unions():
    a = MetricRegistry()
    a.counter("only.a").inc()
    b = MetricRegistry()
    b.counter("only.b").inc(5)
    merged = merge_snapshots(a.snapshot(), b.snapshot())
    assert merged["counters"] == {"only.a": 1.0, "only.b": 5.0}


def test_merge_mismatched_bucket_layouts_raises():
    a = MetricRegistry()
    a.histogram("h", bounds=(1.0,)).observe(0.5)
    b = MetricRegistry()
    b.histogram("h", bounds=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        merge_snapshots(a.snapshot(), b.snapshot())


def test_snapshot_json_is_stable_across_insertion_order():
    a = MetricRegistry()
    a.counter("z").inc()
    a.counter("a").inc()
    b = MetricRegistry()
    b.counter("a").inc()
    b.counter("z").inc()
    assert a.to_json() == b.to_json()
