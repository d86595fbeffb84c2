"""Network substrate: links, cellular uplink, RTP/video streaming models."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .cellular import CellularUplink
    from .channel import GilbertElliott, LinkModel, gilbert_elliott_for
    from .dsrc import Beacon, DsrcMedium, DsrcRadio, Neighbor, NeighborTable
    from .estimator import LinkEstimate, LinkEstimator
    from .params import BACKHAUL_PARAMS, DSRC_PARAMS, WIFI_PARAMS, LinkPreset, LTEParams
    from .rtp import DEFAULT_MTU, RTP_HEADER_BYTES, RtpPacket, RtpPacketizer
    from .streaming import StreamResult, cellular_bandwidth_trace, mph_to_mps, run_drive_stream
    from .video import (
        VIDEO_720P,
        VIDEO_1080P,
        Frame,
        FrameLossAccounting,
        VideoProfile,
        VideoStream,
    )

__all__ = [
    "BACKHAUL_PARAMS",
    "Beacon",
    "CellularUplink",
    "DsrcMedium",
    "DsrcRadio",
    "Neighbor",
    "NeighborTable",
    "DEFAULT_MTU",
    "DSRC_PARAMS",
    "Frame",
    "FrameLossAccounting",
    "GilbertElliott",
    "LinkEstimate",
    "LinkEstimator",
    "LTEParams",
    "LinkModel",
    "LinkPreset",
    "RTP_HEADER_BYTES",
    "RtpPacket",
    "RtpPacketizer",
    "StreamResult",
    "cellular_bandwidth_trace",
    "VIDEO_1080P",
    "VIDEO_720P",
    "VideoProfile",
    "VideoStream",
    "WIFI_PARAMS",
    "gilbert_elliott_for",
    "mph_to_mps",
    "run_drive_stream",
]

__getattr__, __dir__ = _lazy_exports(__name__)
