"""Unit tests for the cellular uplink model and the drive-stream experiment."""

import json
import os

import numpy as np
import pytest

from repro.net import (
    VIDEO_1080P,
    VIDEO_720P,
    CellularUplink,
    LTEParams,
    mph_to_mps,
    run_drive_stream,
)
from repro.obs import Collector

FIG2_RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    os.pardir,
    "benchmarks",
    "results",
    "fig2_loss.json",
)


def make_uplink(**overrides):
    params = LTEParams(**overrides) if overrides else LTEParams()
    return CellularUplink(params, np.random.default_rng(0))


def test_cell_boundaries_at_midpoints():
    uplink = make_uplink(bs_spacing_m=100.0)
    assert uplink.cell_of(0.0) == 0
    assert uplink.cell_of(49.0) == 0
    assert uplink.cell_of(51.0) == 1
    assert uplink.cell_of(149.0) == 1


def test_edge_fraction_zero_at_centre_one_at_edge():
    uplink = make_uplink(bs_spacing_m=100.0)
    assert uplink.edge_fraction(0.0) == 0.0
    assert uplink.edge_fraction(50.0) == pytest.approx(1.0)


def test_capacity_degrades_toward_edge():
    uplink = make_uplink(bs_spacing_m=100.0, uplink_capacity_mbps=10.0)
    assert uplink.local_capacity_mbps(0.0) == pytest.approx(10.0)
    assert uplink.local_capacity_mbps(49.9) < 4.0


def test_handoff_interruption_grows_with_speed():
    uplink = make_uplink()
    slow = uplink.handoff_interruption_s(mph_to_mps(35))
    fast = uplink.handoff_interruption_s(mph_to_mps(70))
    assert fast > 5 * slow


def test_burst_length_shrinks_with_speed():
    params = LTEParams()
    assert params.burst_length(0.0) == params.burst_base_packets
    assert params.burst_length(30.0) < 2.0
    assert params.burst_length(1e9) == 1.0


def test_packets_lost_during_handoff():
    uplink = make_uplink(bs_spacing_m=100.0)
    # Attach at cell 0 centre, then jump across the boundary.
    assert uplink.send_packet(0.0, 0.0, 30.0, 5.0) in (True, False)
    delivered = uplink.send_packet(1.0, 60.0, 30.0, 5.0)
    assert uplink.handoff_count == 1
    assert not delivered  # inside the interruption window


def test_service_restored_after_interruption_and_ramp():
    uplink = make_uplink(bs_spacing_m=100.0, base_loss=0.0, congestion_loss_coeff=0.0,
                         fading_loss_coeff=0.0)
    uplink.send_packet(0.0, 0.0, 10.0, 1.0)
    uplink.send_packet(1.0, 60.0, 10.0, 1.0)  # triggers handoff
    gap = uplink.handoff_interruption_s(10.0)
    ramp = uplink.params.grant_ramp_s
    # Well after outage + ramp, at low utilization the packet must survive.
    t = 1.0 + gap + ramp + 1.0
    assert uplink.send_packet(t, 100.0, 10.0, 1.0)


def test_static_vehicle_never_hands_off():
    uplink = make_uplink()
    for i in range(1000):
        uplink.send_packet(i * 0.01, 0.0, 0.0, 3.8)
    assert uplink.handoff_count == 0


def test_offered_bitrate_must_be_positive():
    with pytest.raises(ValueError):
        make_uplink().send_packet(0.0, 0.0, 0.0, 0.0)


def test_drive_stream_loss_increases_with_speed():
    results = [
        run_drive_stream(VIDEO_720P, mph, duration_s=120,
                         rng=np.random.default_rng(7))
        for mph in (0, 35, 70)
    ]
    losses = [r.packet_loss_rate for r in results]
    assert losses[0] < losses[1] < losses[2]


def test_drive_stream_loss_increases_with_resolution():
    r720 = run_drive_stream(VIDEO_720P, 35, duration_s=120, rng=np.random.default_rng(9))
    r1080 = run_drive_stream(VIDEO_1080P, 35, duration_s=120, rng=np.random.default_rng(9))
    assert r1080.packet_loss_rate > r720.packet_loss_rate
    assert r1080.frame_loss_rate > r720.frame_loss_rate


def test_drive_stream_frame_loss_exceeds_packet_loss():
    """The paper: 'the frame loss rate is bigger than the packet loss rate
    for all the cases'."""
    for mph in (0, 35, 70):
        result = run_drive_stream(
            VIDEO_720P, mph, duration_s=120, rng=np.random.default_rng(11)
        )
        assert result.frame_loss_rate > result.packet_loss_rate


def test_drive_stream_counts_handoffs():
    result = run_drive_stream(VIDEO_720P, 70, duration_s=300, rng=np.random.default_rng(1))
    travelled = mph_to_mps(70) * 300
    expected = int(travelled / LTEParams().bs_spacing_m)
    assert abs(result.handoffs - expected) <= 1


def test_mph_conversion():
    assert mph_to_mps(70) == pytest.approx(31.29, abs=0.01)


def test_fig2_rows_match_the_committed_results_exactly():
    with open(FIG2_RESULTS_PATH) as handle:
        committed = {row["scenario"]: row for row in json.load(handle)["rows"]}
    assert len(committed) == 6
    for mph in (0, 35, 70):
        for profile in (VIDEO_720P, VIDEO_1080P):
            result = run_drive_stream(
                profile, mph, 300.0, rng=np.random.default_rng(42)
            )
            label = "Static" if mph == 0 else f"{mph}MPH"
            pinned = committed[f"{label} {profile.name}"]
            assert result.packet_loss_rate == pinned["packet"], pinned["scenario"]
            assert result.frame_loss_rate == pinned["frame"], pinned["scenario"]
            assert result.handoffs == pinned["handoffs"], pinned["scenario"]


def _scalar_sends(uplink, times, positions, speed_mps, offered_mbps):
    return [
        uplink.send_packet(t, x, speed_mps, offered_mbps)
        for t, x in zip(times.tolist(), positions.tolist())
    ]


def _assert_batch_matches_scalar(
    params, mph, offered_mbps, packets=10_000, batch=slice(None)
):
    """``send_packets`` over ``batch`` (scalar sends around it) must leave
    exactly what one ``send_packet`` per packet leaves."""
    speed_mps = mph_to_mps(mph)
    # 60 s of packets from 200 m, near the first cell edge.
    times = np.arange(packets) * (60.0 / packets)
    positions = 200.0 + speed_mps * times
    scalar_obs, batch_obs = Collector(), Collector()
    scalar = CellularUplink(params, np.random.default_rng(3), obs=scalar_obs)
    batched = CellularUplink(params, np.random.default_rng(3), obs=batch_obs)

    expected = _scalar_sends(scalar, times, positions, speed_mps, offered_mbps)
    start, stop, _ = batch.indices(packets)
    delivered = (
        _scalar_sends(batched, times[:start], positions[:start], speed_mps, offered_mbps)
        + batched.send_packets(
            times[start:stop], positions[start:stop], speed_mps, offered_mbps
        ).tolist()
        + _scalar_sends(batched, times[stop:], positions[stop:], speed_mps, offered_mbps)
    )
    assert delivered == expected
    assert batched.handoff_count == scalar.handoff_count
    assert batched._channel.bad == scalar._channel.bad
    assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert batch_obs.metrics_json() == scalar_obs.metrics_json()
    assert batch_obs.trace_json() == scalar_obs.trace_json()
    return batch_obs.snapshot()


@pytest.mark.parametrize("mph", [0, 35, 70])
@pytest.mark.parametrize("offered_mbps", [3.8, 5.8, 9.5])
def test_send_packets_matches_scalar_sends(mph, offered_mbps):
    _assert_batch_matches_scalar(LTEParams(), mph, offered_mbps)


def test_send_packets_matches_scalar_sends_under_dense_grant_drops():
    params = LTEParams(grant_ramp_s=30.0, uplink_capacity_mbps=4.0)
    counters = _assert_batch_matches_scalar(params, 70, 3.8)["counters"]
    assert counters["net.grant_drops{link=lte}"] > 1_000


def test_send_packets_mixes_with_scalar_sends_on_one_uplink():
    _assert_batch_matches_scalar(LTEParams(), 70, 9.5, batch=slice(3_000, 7_000))
