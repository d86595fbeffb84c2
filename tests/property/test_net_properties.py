"""Property-based tests for the network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    GilbertElliott,
    LinkModel,
    RtpPacketizer,
    FrameLossAccounting,
    VideoProfile,
    VideoStream,
)


@given(bandwidth=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
       rtt=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       loss=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
       nbytes=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
@settings(max_examples=200)
def test_link_transfer_time_properties(bandwidth, rtt, loss, nbytes):
    link = LinkModel(name="l", bandwidth_mbps=bandwidth, rtt_s=rtt, loss_rate=loss)
    t = link.transfer_time(nbytes)
    assert t >= rtt / 2.0
    # Monotone in size.
    assert link.transfer_time(nbytes * 2) >= t
    # Reliable transfer never beats best-effort.
    assert t >= link.transfer_time(nbytes, reliable=False) - 1e-12


@given(loss=st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
       burst=st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_gilbert_elliott_stationary_rate(loss, burst, seed):
    channel = GilbertElliott(np.random.default_rng(seed), loss, burst)
    n = 40_000
    observed = sum(channel.step() for _ in range(n)) / n
    # A target beyond burst/(1+burst) clamps to the achievable rate.
    target = channel.achievable_loss_rate
    assert target <= loss + 1e-12
    slack = 0.02 + 4.0 * np.sqrt(max(target * (1 - target), 0.01) * burst / n)
    assert abs(observed - target) <= slack


@given(frame_bytes=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       mtu=st.integers(min_value=100, max_value=9000))
@settings(max_examples=200)
def test_packetizer_conserves_bytes(frame_bytes, mtu):
    packets = RtpPacketizer(mtu=mtu).packetize(0, frame_bytes)
    total = sum(p.payload_bytes for p in packets)
    assert total == int(np.ceil(frame_bytes))
    assert all(p.payload_bytes <= mtu for p in packets)
    assert sum(p.marker for p in packets) == 1 and packets[-1].marker


@given(bitrate=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
       duration=st.floats(min_value=2.0, max_value=60.0, allow_nan=False))
@settings(max_examples=50)
def test_video_stream_conserves_bitrate_budget(bitrate, duration):
    profile = VideoProfile(name="p", width=1280, height=720, bitrate_mbps=bitrate)
    frames = list(VideoStream(profile, duration).frames())
    total_bytes = sum(f.nbytes for f in frames)
    # Whole GOPs carry exactly the budget; allow the partial final GOP.
    expected = bitrate * 1e6 / 8.0 * duration
    assert total_bytes <= expected * 1.15
    assert total_bytes >= expected * 0.8
    # Exactly one key frame per GOP.
    keys = [f for f in frames if f.is_key]
    assert len(keys) == len({f.gop_index for f in frames})


@given(loss_pattern=st.lists(st.booleans(), min_size=1, max_size=400),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=60)
def test_frame_loss_at_least_direct_loss_and_bounded(loss_pattern, seed):
    """Accounting invariants: packet totals conserved; direct-lost frames
    <= frame loss rate <= 1; GOP policy only ever *adds* lost frames."""
    rng = np.random.default_rng(seed)
    profile = VideoProfile(name="p", width=640, height=480, bitrate_mbps=2.0)
    frames = list(VideoStream(profile, 4.0).frames())
    acc = FrameLossAccounting()
    direct_lost = 0
    sent = 0
    lost = 0
    for i, frame in enumerate(frames):
        n_packets = 1 + int(rng.integers(0, 4))
        drop = loss_pattern[i % len(loss_pattern)]
        results = [not drop] * n_packets
        if drop:
            direct_lost += 1
            lost += n_packets
        sent += n_packets
        acc.record_frame(frame, results)
    assert acc.packets_sent == sent and acc.packets_lost == lost
    direct_rate = direct_lost / len(frames)
    assert acc.frame_loss_rate >= direct_rate - 1e-12
    assert 0.0 <= acc.frame_loss_rate <= 1.0
    assert 0.0 <= acc.packet_loss_rate <= 1.0
