"""Generic link models and the Gilbert-Elliott burst-loss channel.

Two building blocks used throughout the platform:

* :class:`LinkModel` -- a first-order (rtt, bandwidth, loss) pipe used by the
  offloading engine to cost data movement between vehicle, XEdge and cloud.
* :class:`GilbertElliott` -- the classic two-state Markov loss channel; real
  radio losses are bursty, and burstiness is what makes the paper's frame
  loss (Figure 2) diverge from naive per-packet estimates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder

__all__ = ["LinkModel", "GilbertElliott", "gilbert_elliott_for"]


@dataclass
class LinkModel:
    """A point-to-point pipe characterised by rtt, bandwidth and loss.

    ``transfer_time`` includes the retransmission inflation for reliable
    transports: with loss rate p, on average 1/(1-p) copies of each byte
    cross the link.
    """

    name: str
    bandwidth_mbps: float
    rtt_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_mbps}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.loss_rate}")
        if self.rtt_s < 0:
            raise ValueError("rtt must be non-negative")

    @property
    def one_way_latency_s(self) -> float:
        return self.rtt_s / 2.0

    def transfer_time(self, nbytes: float, reliable: bool = True) -> float:
        """Seconds to move ``nbytes`` across the link (one direction)."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return self.one_way_latency_s
        inflation = 1.0 / (1.0 - self.loss_rate) if reliable else 1.0
        serialization = nbytes * 8.0 * inflation / (self.bandwidth_mbps * 1e6)
        return self.one_way_latency_s + serialization

class GilbertElliott:
    """Two-state Markov packet-loss channel (Good / Bad).

    In the Good state packets are delivered (with a small residual loss);
    in the Bad state they are dropped.  The stationary loss rate and the
    mean burst length fully determine the transition probabilities:

        mean bad dwell  = burst packets      ->  p(bad->good) = 1/burst
        stationary bad  = target loss        ->  p(good->bad) solved from balance
    """

    def __init__(
        self,
        rng: np.random.Generator,
        loss_rate: float,
        burst_length: float = 3.0,
        residual_good_loss: float = 0.0,
        obs: Recorder | None = None,
        link: str = "channel",
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if burst_length < 1.0:
            raise ValueError(f"burst length must be >= 1, got {burst_length}")
        self.rng = rng
        self.loss_rate = loss_rate
        self.burst_length = burst_length
        self.residual_good_loss = residual_good_loss
        self.p_bg = 1.0 / burst_length
        self.p_gb = self._solve_p_gb(loss_rate)
        self.bad = False
        self.obs = obs if obs is not None else NULL_RECORDER
        self.link = link

    def _solve_p_gb(self, loss_rate: float) -> float:
        """Good->bad probability for a target stationary loss.

        Balance: pi_bad = p_gb / (p_gb + p_bg).  With mean bad dwell fixed,
        the achievable stationary loss tops out at burst/(1+burst); requests
        beyond it clamp there (p_gb = 1).
        """
        if loss_rate <= 0.0:
            return 0.0
        return min(1.0, loss_rate * self.p_bg / (1.0 - loss_rate))

    @property
    def achievable_loss_rate(self) -> float:
        """The stationary loss the chain actually realizes (post-clamp)."""
        if self.p_gb == 0.0:
            return self.residual_good_loss
        return self.p_gb / (self.p_gb + self.p_bg)

    def step(self) -> bool:
        """Advance one packet slot; returns True if that packet is LOST."""
        if self.bad:
            if self.rng.random() < self.p_bg:
                self.bad = False
        else:
            if self.rng.random() < self.p_gb:
                self.bad = True
                self.obs.count("net.channel_bursts", link=self.link)
        lost = self.bad or self.rng.random() < self.residual_good_loss
        if self.obs.enabled:
            self.obs.count("net.channel_packets", link=self.link)
            if lost:
                self.obs.count("net.channel_losses", link=self.link)
        return lost

    def _walk(
        self,
        n: int,
        grant_slots: list[int],
        grant_drop_probability: list[float],
    ) -> tuple[np.ndarray, int]:
        """Walk ``n`` packets through the chain in scalar draw order.

        Returns ``(lost, grant_drops)``: a bool array that is True for
        every packet not delivered, and how many of those a grant lottery
        dropped.  Packet ``grant_slots[j]`` (ascending) first draws one
        uniform against ``grant_drop_probability[j]`` -- the uplink's
        grant lottery, :meth:`~repro.net.cellular.CellularUplink.send_packet`'s
        order -- and is dropped without touching the chain if it lands
        below.  Otherwise it draws as :meth:`step` does: one transition
        uniform, then one residual-loss uniform only if the chain is Good
        afterwards.  The walk leaves the chain and the generator exactly
        where the scalar calls would, while paying the RNG and
        instrumentation costs once per walk instead of once per packet.

        Uniforms come from ``rng.random(k)`` blocks.  A block is drawn only
        when the previous one is used up and a draw is due, and ``k``
        counts the current packet and every packet after it -- a lower
        bound on the draws still to come, since each packet draws at least
        once.  Every drawn value is therefore consumed (numpy guarantees
        ``rng.random(k)`` yields the same values as ``k`` scalar calls).

        Between bursts the packets are decided in bulk: a Good-state packet
        that stays Good takes exactly a transition and a residual uniform,
        so a run of them is ``block[pos + 1 : pos + 2 * run : 2] <
        residual``.  A run stops at the first transition draw below
        ``p_gb`` (among the block's ``flatnonzero(block < p_gb)``, at
        positions of ``pos``'s parity), at a grant packet or at the end of
        the block; that packet, and every Bad-state one, is stepped one
        draw at a time.
        """
        rng = self.rng
        p_gb = self.p_gb
        p_bg = self.p_bg
        residual = self.residual_good_loss
        bad = self.bad
        lost = np.ones(n, dtype=bool)
        block = np.empty(0)
        size = pos = 0
        # Block positions of draws below p_gb, split by parity.
        below_p_gb: tuple[list[int], list[int]] = ([], [])
        grants = [*grant_slots, n]
        g = 0
        grant_drops = 0
        bursts = 0
        i = 0

        def refill() -> None:
            nonlocal block, size, pos, below_p_gb
            block = rng.random(n - i)
            size = n - i
            pos = 0
            hits = np.flatnonzero(block < p_gb)
            odd = (hits & 1).astype(bool)
            below_p_gb = (hits[~odd].tolist(), hits[odd].tolist())

        while i < n:
            next_grant = grants[g]
            if not bad and i < next_grant:
                if pos == size:
                    refill()
                hits = below_p_gb[pos & 1]
                j = bisect_left(hits, pos)
                stop = hits[j] if j < len(hits) else size
                run = min((stop - pos) >> 1, next_grant - i)
                if run:
                    lost[i : i + run] = block[pos + 1 : pos + 2 * run : 2] < residual
                    i += run
                    pos += 2 * run
                    continue
            # One packet, one draw at a time (scalar step order).
            if i == next_grant:
                if pos == size:
                    refill()
                u = block[pos]
                pos += 1
                drop = u < grant_drop_probability[g]
                g += 1
                if drop:
                    grant_drops += 1
                    i += 1
                    continue
            if pos == size:
                refill()
            u = block[pos]
            pos += 1
            if bad:
                if u < p_bg:
                    bad = False
            elif u < p_gb:
                bad = True
                bursts += 1
            if not bad:
                if pos == size:
                    refill()
                lost[i] = block[pos] < residual
                pos += 1
            i += 1
        self.bad = bad

        obs = self.obs
        if bursts:
            obs.count("net.channel_bursts", bursts, link=self.link)
        if obs.enabled and n > grant_drops:
            obs.count("net.channel_packets", n - grant_drops, link=self.link)
            losses = int(lost.sum()) - grant_drops
            if losses:
                obs.count("net.channel_losses", losses, link=self.link)
        return lost, grant_drops

    def retune(self, loss_rate: float, burst_length: float | None = None) -> None:
        """Update stationary loss rate (and burst length) in place."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if burst_length is not None:
            if burst_length < 1.0:
                raise ValueError(f"burst length must be >= 1, got {burst_length}")
            self.burst_length = burst_length
            self.p_bg = 1.0 / burst_length
        self.loss_rate = loss_rate
        self.p_gb = self._solve_p_gb(loss_rate)


def gilbert_elliott_for(
    rng: np.random.Generator,
    loss_rate: float,
    burst_length: float = 3.0,
    residual_good_loss: float = 0.0,
    obs: Recorder | None = None,
    link: str = "channel",
) -> GilbertElliott:
    """The blessed constructor for burst-loss channels.

    Exposes the full :class:`GilbertElliott` parameter set (it used to
    drop the instrumentation arguments); every in-tree channel -- scalar
    :meth:`GilbertElliott.step` consumers and the uplink's batched walk
    alike -- is built through this one entry point.
    """
    return GilbertElliott(
        rng,
        loss_rate,
        burst_length,
        residual_good_loss=residual_good_loss,
        obs=obs,
        link=link,
    )
