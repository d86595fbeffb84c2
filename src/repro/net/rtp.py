"""UDP/RTP packetization.

The drive tests used the UDP-based Real-time Transport Protocol with no
retransmission; a frame is simply split into MTU-sized RTP packets and each
packet survives or dies on the channel independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RtpPacket", "RtpPacketizer", "RTP_HEADER_BYTES", "DEFAULT_MTU"]

RTP_HEADER_BYTES = 12 + 8 + 20  # RTP + UDP + IP headers
DEFAULT_MTU = 1400  # payload bytes per packet (conservative Ethernet MTU)


@dataclass(frozen=True)
class RtpPacket:
    """One RTP packet of an encoded frame."""

    sequence: int
    frame_index: int
    payload_bytes: int
    marker: bool  # last packet of the frame

class RtpPacketizer:
    """Splits frames into RTP packets with a monotonic sequence number."""

    def __init__(self, mtu: int = DEFAULT_MTU):
        if mtu <= 0:
            raise ValueError("MTU must be positive")
        self.mtu = mtu
        self._sequence = 0

    def packet_count(self, frame_bytes: float) -> int:
        """Number of packets :meth:`packetize` would emit for this frame.

        Pure arithmetic (no sequence-number side effects): the batched
        streaming path sizes whole-drive packet arrays from this, then
        advances the sequence counter in bulk via :meth:`advance_sequence`.
        """
        if frame_bytes < 0:
            raise ValueError("frame size must be non-negative")
        total = int(math.ceil(frame_bytes))
        return max(1, math.ceil(total / self.mtu))

    def advance_sequence(self, count: int) -> None:
        """Bulk-advance the monotonic sequence counter by ``count`` packets."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._sequence += count

    def packetize(self, frame_index: int, frame_bytes: float) -> list[RtpPacket]:
        """RTP packets covering ``frame_bytes`` of encoded payload."""
        if frame_bytes < 0:
            raise ValueError("frame size must be non-negative")
        total = int(math.ceil(frame_bytes))
        count = max(1, math.ceil(total / self.mtu))
        packets = []
        remaining = total
        for i in range(count):
            payload = min(self.mtu, remaining) if remaining > 0 else 0
            remaining -= payload
            packets.append(
                RtpPacket(
                    sequence=self._sequence,
                    frame_index=frame_index,
                    payload_bytes=payload,
                    marker=(i == count - 1),
                )
            )
            self._sequence += 1
        return packets
