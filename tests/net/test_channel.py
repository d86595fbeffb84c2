"""Unit tests for link models and the Gilbert-Elliott channel."""

import numpy as np
import pytest

from repro.net import GilbertElliott, LinkModel
from repro.obs import Collector


def test_link_validation():
    with pytest.raises(ValueError):
        LinkModel(name="x", bandwidth_mbps=0.0)
    with pytest.raises(ValueError):
        LinkModel(name="x", bandwidth_mbps=1.0, loss_rate=1.0)
    with pytest.raises(ValueError):
        LinkModel(name="x", bandwidth_mbps=1.0, rtt_s=-0.1)


def test_link_transfer_time_components():
    link = LinkModel(name="x", bandwidth_mbps=8.0, rtt_s=0.020)
    # 1 MB at 8 Mbps = 1 s serialization + 10 ms propagation.
    assert link.transfer_time(1e6) == pytest.approx(1.010)


def test_link_zero_bytes_costs_propagation_only():
    link = LinkModel(name="x", bandwidth_mbps=8.0, rtt_s=0.020)
    assert link.transfer_time(0) == pytest.approx(0.010)


def test_link_loss_inflates_reliable_transfer():
    clean = LinkModel(name="a", bandwidth_mbps=8.0)
    lossy = LinkModel(name="b", bandwidth_mbps=8.0, loss_rate=0.5)
    assert lossy.transfer_time(1e6) == pytest.approx(2 * clean.transfer_time(1e6))
    assert lossy.transfer_time(1e6, reliable=False) == pytest.approx(
        clean.transfer_time(1e6)
    )


def test_link_round_trip_time():
    link = LinkModel(name="x", bandwidth_mbps=8.0, rtt_s=0.020)
    expected = link.transfer_time(1e6) + link.transfer_time(2e6)
    assert link.round_trip_time(1e6, 2e6) == pytest.approx(expected)


def test_link_negative_size_raises():
    with pytest.raises(ValueError):
        LinkModel(name="x", bandwidth_mbps=1.0).transfer_time(-1)


def test_ge_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        GilbertElliott(rng, loss_rate=1.0)
    with pytest.raises(ValueError):
        GilbertElliott(rng, loss_rate=0.1, burst_length=0.5)


def test_ge_zero_loss_never_drops():
    channel = GilbertElliott(np.random.default_rng(0), loss_rate=0.0)
    assert not any(channel.step() for _ in range(10_000))


def test_ge_stationary_loss_rate_converges():
    channel = GilbertElliott(np.random.default_rng(1), loss_rate=0.2, burst_length=4.0)
    n = 200_000
    losses = sum(channel.step() for _ in range(n))
    assert losses / n == pytest.approx(0.2, abs=0.02)


def test_ge_losses_are_bursty():
    """Mean run length of consecutive losses should be near the burst length."""
    channel = GilbertElliott(np.random.default_rng(2), loss_rate=0.1, burst_length=8.0)
    outcomes = [channel.step() for _ in range(200_000)]
    runs = []
    current = 0
    for lost in outcomes:
        if lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    mean_run = sum(runs) / len(runs)
    assert mean_run == pytest.approx(8.0, rel=0.2)


def test_ge_retune_changes_rate_and_burst():
    channel = GilbertElliott(np.random.default_rng(3), loss_rate=0.01, burst_length=2.0)
    channel.retune(0.3, burst_length=5.0)
    assert channel.loss_rate == 0.3
    assert channel.p_bg == pytest.approx(0.2)
    n = 100_000
    losses = sum(channel.step() for _ in range(n))
    assert losses / n == pytest.approx(0.3, abs=0.03)


def test_ge_retune_validation():
    channel = GilbertElliott(np.random.default_rng(0), loss_rate=0.1)
    with pytest.raises(ValueError):
        channel.retune(1.5)
    with pytest.raises(ValueError):
        channel.retune(0.1, burst_length=0.0)


@pytest.mark.parametrize(
    "loss_rate, burst_length, residual",
    [
        (0.1, 4.0, 0.05),
        (0.1, 4.0, 0.2),
        (0.1, 4.0, 0.3),
        (0.0, 3.0, 0.2),  # p_gb = 0: the chain never leaves Good
        (0.9, 1.0, 0.0),  # p_gb clamps to 1: every Good slot turns Bad
    ],
)
@pytest.mark.parametrize("start_bad", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 5000])
def test_step_many_matches_scalar_steps(loss_rate, burst_length, residual, start_bad, n):
    def channel(obs):
        ge = GilbertElliott(
            np.random.default_rng(5),
            loss_rate=loss_rate,
            burst_length=burst_length,
            residual_good_loss=residual,
            obs=obs,
        )
        ge.bad = start_bad
        return ge

    scalar_obs, batch_obs = Collector(), Collector()
    scalar, batch = channel(scalar_obs), channel(batch_obs)
    expected = [scalar.step() for _ in range(n)]
    assert batch.step_many(n).tolist() == expected
    assert batch.bad == scalar.bad
    assert batch.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert batch_obs.metrics_json() == scalar_obs.metrics_json()
