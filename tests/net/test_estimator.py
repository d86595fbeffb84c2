"""Tests for the network-quality estimator."""

import pytest

from repro.net import LinkEstimator, LinkModel


def test_estimator_validation():
    with pytest.raises(ValueError):
        LinkEstimator(alpha=0.0)
    estimator = LinkEstimator()
    with pytest.raises(ValueError):
        estimator.observe(0.0, 1000, -1.0, 0.01)
    with pytest.raises(ValueError):
        estimator.observe(0.0, 1000, 1.0, 0.01, lost_fraction=2.0)
    with pytest.raises(RuntimeError):
        estimator.estimate(0.0)


def test_first_observation_seeds_estimate():
    estimator = LinkEstimator()
    # 1 MB in 1 s = 8 Mbps.
    estimator.observe(0.0, 1e6, 1.0, rtt_s=0.05, lost_fraction=0.01)
    estimate = estimator.estimate(0.0)
    assert estimate.bandwidth_mbps == pytest.approx(8.0)
    assert estimate.rtt_s == pytest.approx(0.05)
    assert estimate.loss_rate == pytest.approx(0.01)
    assert estimate.samples == 1 and not estimate.confident


def test_ewma_converges_to_stable_link():
    estimator = LinkEstimator(alpha=0.3)
    for t in range(20):
        estimator.observe(float(t), 1e6, 0.8, rtt_s=0.02)  # 10 Mbps
    estimate = estimator.estimate(20.0)
    assert estimate.bandwidth_mbps == pytest.approx(10.0, rel=0.01)
    assert estimate.confident


def test_estimator_tracks_bandwidth_change():
    estimator = LinkEstimator(alpha=0.3)
    for t in range(10):
        estimator.observe(float(t), 1e6, 0.8, rtt_s=0.02)  # 10 Mbps
    for t in range(10, 25):
        estimator.observe(float(t), 1e6, 8.0, rtt_s=0.1)  # 1 Mbps
    estimate = estimator.estimate(25.0)
    assert estimate.bandwidth_mbps < 2.0
    assert estimate.rtt_s > 0.05


def test_staleness_breaks_confidence():
    estimator = LinkEstimator()
    for t in range(5):
        estimator.observe(float(t), 1e6, 1.0, rtt_s=0.02)
    assert estimator.estimate(5.0).confident
    assert not estimator.estimate(100.0).confident


def test_rtt_variance_reflects_jitter():
    steady = LinkEstimator()
    jittery = LinkEstimator()
    for t in range(30):
        steady.observe(float(t), 1e5, 0.1, rtt_s=0.05)
        jittery.observe(float(t), 1e5, 0.1, rtt_s=0.05 if t % 2 else 0.25)
    assert jittery.estimate(30.0).rtt_var_s > steady.estimate(30.0).rtt_var_s


def test_estimate_as_link_is_usable():
    estimator = LinkEstimator()
    estimator.observe(0.0, 1e6, 1.0, rtt_s=0.04, lost_fraction=0.02)
    link = estimator.estimate(0.0).as_link("probe")
    assert isinstance(link, LinkModel)
    assert link.transfer_time(1e6) > 0


def test_probe_link_roundtrip_recovers_truth():
    truth = LinkModel(name="dsrc", bandwidth_mbps=27.0, rtt_s=0.004, loss_rate=0.01)
    estimator = LinkEstimator(alpha=0.5)
    for t in range(10):
        estimator.probe_link(float(t), truth, probe_bytes=500_000)
    estimate = estimator.estimate(10.0)
    assert estimate.bandwidth_mbps == pytest.approx(27.0, rel=0.15)
    assert estimate.rtt_s == pytest.approx(0.004)
    assert estimate.loss_rate == pytest.approx(0.01, abs=0.005)
