"""Fleet partitions ship histogram state and never compute estimates.

The coordinator merges partition metrics and keeps only their mergeable
view, which has no quantile estimates.  Running P-squared inside a
partition would therefore be pure waste; these tests make it an error.
"""

from dataclasses import replace

import pytest

from repro.fleet import FleetConfig, PartitionRuntime, sort_envelopes
from repro.fleet.coordinator import run_inline, run_single_process
from repro.obs import Histogram, P2Quantile, merge_many, mergeable_view


@pytest.fixture(scope="module")
def config():
    return FleetConfig(seed=3, vehicles=4, partitions=2, duration_s=4.0,
                       workload="skewed")


@pytest.fixture
def no_p2(monkeypatch):
    # ``extend`` is the one update path: ``add`` and every histogram's
    # read-time replay go through it.
    def refuse(self, samples):
        raise AssertionError("a fleet path ran a P-squared estimator")

    monkeypatch.setattr(P2Quantile, "extend", refuse)


def _launched_runtime(config) -> PartitionRuntime:
    reference = replace(config, partitions=1)
    runtime = PartitionRuntime(reference.spec_for(0))
    runtime.launch()
    inbound = ()
    for round_index, barrier_s in enumerate(reference.barriers()):
        result = runtime.advance(round_index, barrier_s, inbound)
        inbound = tuple(sort_envelopes(list(result.outbound)))
    return runtime


def test_inline_and_reference_runs_finish_without_p2(config, no_p2):
    inline = run_inline(config)
    reference = run_single_process(config)
    assert inline.vehicle_hashes == reference.vehicle_hashes
    assert inline.metrics == reference.metrics
    assert inline.metrics["histograms"]


def test_partition_snapshot_histograms_carry_no_estimates(config, no_p2):
    runtime = _launched_runtime(config)
    histograms = runtime.metrics_snapshot()["histograms"]
    assert histograms
    for key, hist in histograms.items():
        assert not {"p50", "p95", "p99"} & set(hist), key


def test_state_view_equals_full_snapshot_view(config):
    runtime = _launched_runtime(config)
    state_view = mergeable_view(merge_many([runtime.metrics_snapshot()]))
    full_view = mergeable_view(merge_many([runtime.collector.snapshot()]))
    assert state_view == full_view


def test_no_p2_guard_trips_on_a_quantile_read(no_p2):
    hist = Histogram("h")
    hist.observe(1.0)
    with pytest.raises(AssertionError, match="P-squared"):
        hist.quantile(0.5)
