"""End-to-end drive-and-stream experiment (the Figure 2 procedure).

Reproduces the paper's field test: drive at a fixed speed while uploading a
5-minute H.264 video over UDP/RTP on the LTE uplink, then report packet and
frame loss rates under the paper's counting policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.recorder import Recorder
from .cellular import CellularUplink
from .params import LTEParams
from .rtp import RtpPacketizer
from .video import FrameLossAccounting, VideoProfile, VideoStream

__all__ = ["StreamResult", "run_drive_stream", "mph_to_mps"]

MPH_TO_MPS = 0.44704


def mph_to_mps(mph: float) -> float:
    """Miles per hour to metres per second."""
    return mph * MPH_TO_MPS


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one drive-and-stream run."""

    profile_name: str
    speed_mph: float
    packets_sent: int
    packets_lost: int
    packet_loss_rate: float
    frame_loss_rate: float
    handoffs: int


def run_drive_stream(
    profile: VideoProfile,
    speed_mph: float,
    duration_s: float = 300.0,
    params: LTEParams | None = None,
    rng: np.random.Generator | None = None,
    start_position_m: float = 0.0,
    obs: Recorder | None = None,
) -> StreamResult:
    """Simulate one upload run and return the loss statistics.

    The vehicle starts at a cell centre (``start_position_m = 0``) and moves
    at constant speed; each frame's packets are spread uniformly across the
    frame interval so handoff outages clip partial frames, as they do on a
    real radio.

    The drive runs as one numpy batch: frame generation
    (:meth:`~repro.net.video.VideoStream.frame_arrays`), packet timing,
    the uplink (:meth:`~repro.net.cellular.CellularUplink.send_packets`)
    and the loss accounting all operate on whole-drive arrays.  Packet
    outcomes are RNG-draw-order compatible with the per-packet loop this
    replaces, so results are unchanged.
    """
    if params is None:
        params = LTEParams()
    if rng is None:
        rng = np.random.default_rng(0)
    speed_mps = mph_to_mps(speed_mph)
    uplink = CellularUplink(params, rng, obs=obs)
    packetizer = RtpPacketizer()
    accounting = FrameLossAccounting()
    stream = VideoStream(profile, duration_s)
    frame_interval = 1.0 / profile.fps

    indices, timestamps, _nbytes, is_key, gop_indices = stream.frame_arrays()
    # Frame sizes take exactly two values, so per-frame packet counts do too.
    counts = np.where(
        is_key,
        packetizer.packet_count(profile.i_frame_bytes),
        packetizer.packet_count(profile.p_frame_bytes),
    )
    total_packets = int(counts.sum())
    packetizer.advance_sequence(total_packets)
    # Per-packet send times: frame timestamp plus the uniform intra-frame
    # spread (timestamp + i * spacing, the scalar loop's arithmetic).
    spacing = frame_interval / counts
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    frame_of = np.repeat(np.arange(len(indices)), counts)
    within = np.arange(total_packets) - np.repeat(starts, counts)
    packet_times = timestamps[frame_of] + within * spacing[frame_of]
    packet_positions = start_position_m + speed_mps * packet_times

    delivered = uplink.send_packets(
        packet_times, packet_positions, speed_mps, profile.bitrate_mbps
    )
    lost_counts = counts - np.add.reduceat(delivered.astype(np.int64), starts)
    accounting.record_frames(indices, gop_indices, is_key, counts, lost_counts)

    return StreamResult(
        profile_name=profile.name,
        speed_mph=speed_mph,
        packets_sent=accounting.packets_sent,
        packets_lost=accounting.packets_lost,
        packet_loss_rate=accounting.packet_loss_rate,
        frame_loss_rate=accounting.frame_loss_rate,
        handoffs=uplink.handoff_count,
    )

