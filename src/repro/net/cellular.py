"""Cellular (LTE) uplink as experienced by a moving vehicle.

This is the substrate behind the paper's Figure 2 drive tests.  Four loss
mechanisms are modelled, each of which the paper's SIII-A narrative calls
out:

1. **Handoff interruption** -- when the serving cell changes, the UE loses
   service for an interval that grows sharply with speed (stale measurement
   reports, failed target-cell sync, re-attach).  Everything sent during
   the interruption is lost.
2. **Grant ramp** -- after re-attach the scheduler ramps the uplink grant
   back up; while the offered bitrate exceeds the instantaneous grant, the
   excess fraction of packets is dropped.  Higher-resolution streams stay
   above the grant longer.
3. **Cell-edge degradation** -- achievable capacity falls towards the cell
   edge; streams whose bitrate exceeds the local capacity lose the excess
   fraction.  A static test at the cell centre never sees this.
4. **Residual bursty loss** -- a Gilbert-Elliott channel whose stationary
   rate includes a congestion term cubic in channel utilization.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from .channel import gilbert_elliott_for
from .params import LTEParams

__all__ = ["CellularUplink"]


class CellularUplink:
    """Stateful per-packet uplink simulator.

    Call :meth:`send_packet` once per packet in time order -- or
    :meth:`send_packets` with a whole time-ordered batch -- and the object
    tracks serving cell, handoff outages, and the loss channel.  The two
    entry points are outcome- and RNG-stream-equivalent and may be mixed
    freely on one uplink.
    """

    def __init__(
        self,
        params: LTEParams,
        rng: np.random.Generator,
        obs: Recorder | None = None,
    ):
        self.params = params
        self.rng = rng
        self.obs = obs if obs is not None else NULL_RECORDER
        self._serving_cell: int | None = None
        self._outage_until = -math.inf
        self._ramp_start = -math.inf
        self._channel = gilbert_elliott_for(
            rng, loss_rate=params.base_loss, burst_length=params.burst_base_packets,
            obs=self.obs, link="lte",
        )
        self.handoff_count = 0

    # -- geometry ---------------------------------------------------------

    def cell_of(self, position_m: float) -> int:
        """Index of the nearest base station (cell boundaries at midpoints)."""
        return int(math.floor(position_m / self.params.bs_spacing_m + 0.5))

    def edge_fraction(self, position_m: float) -> float:
        """Normalized distance to the serving cell centre, in [0, 1]."""
        spacing = self.params.bs_spacing_m
        centre = self.cell_of(position_m) * spacing
        return min(1.0, abs(position_m - centre) / (spacing / 2.0))

    def local_capacity_mbps(self, position_m: float) -> float:
        """Uplink capacity at this position: degraded toward the cell edge."""
        z = self.edge_fraction(position_m)
        return self.params.uplink_capacity_mbps * (1.0 - 0.70 * z**6)

    def handoff_interruption_s(self, speed_mps: float) -> float:
        """Service-gap duration for a handoff at the given speed."""
        return self.params.handoff_base_s * math.exp(
            speed_mps / self.params.handoff_speed_scale_mps
        )

    # -- per-packet dynamics ------------------------------------------------

    def _granted_mbps(self, time_s: float, position_m: float) -> float:
        """Instantaneous grant: zero in outage, linear ramp after re-attach."""
        if time_s < self._outage_until:
            return 0.0
        capacity = self.local_capacity_mbps(position_m)
        elapsed = time_s - self._ramp_start
        if elapsed < self.params.grant_ramp_s:
            return capacity * elapsed / self.params.grant_ramp_s
        return capacity

    def send_packet(
        self,
        time_s: float,
        position_m: float,
        speed_mps: float,
        offered_bitrate_mbps: float,
    ) -> bool:
        """Send one packet; returns True if it was DELIVERED.

        ``offered_bitrate_mbps`` is the stream's current sending rate, used
        for the grant/capacity comparison and the congestion loss term.
        """
        if offered_bitrate_mbps <= 0:
            raise ValueError("offered bitrate must be positive")
        cell = self.cell_of(position_m)
        if self._serving_cell is None:
            self._serving_cell = cell
            self._ramp_start = time_s - self.params.grant_ramp_s  # pre-attached
        elif cell != self._serving_cell:
            self._serving_cell = cell
            self.handoff_count += 1
            gap = self.handoff_interruption_s(speed_mps)
            self._outage_until = time_s + gap
            self._ramp_start = self._outage_until
            if self.obs.enabled:
                self.obs.count("net.handoffs", link="lte")
                self.obs.observe("net.handoff_gap_s", gap, link="lte")
                self.obs.instant("net.handoff", ts=time_s, track="net", cell=cell)

        # Mechanism 1: total loss during the handoff interruption.
        if time_s < self._outage_until:
            self.obs.count("net.outage_drops", link="lte")
            return False

        # Mechanisms 2+3: proportional drop of the excess over the grant.
        granted = self._granted_mbps(time_s, position_m)
        if granted < offered_bitrate_mbps:
            drop_probability = 1.0 - granted / offered_bitrate_mbps
            if self.rng.random() < drop_probability:
                self.obs.count("net.grant_drops", link="lte")
                return False

        # Mechanism 4: residual bursty loss -- congestion plus fast fading.
        utilization = min(
            1.0, offered_bitrate_mbps / self.params.uplink_capacity_mbps
        )
        stationary = min(
            0.5,
            self.params.base_loss
            + self.params.congestion_loss_coeff * utilization**3
            + self.params.fading_loss_coeff
            * (speed_mps / self.params.fading_speed_ref_mps)
            * utilization**2,
        )
        self._channel.retune(stationary, burst_length=self.params.burst_length(speed_mps))
        return not self._channel.step()

    # -- batched dynamics ---------------------------------------------------

    def send_packets(
        self,
        times: np.ndarray,
        positions: np.ndarray,
        speed_mps: float,
        offered_bitrate_mbps: float,
    ) -> np.ndarray:
        """Send a time-ordered packet batch; returns a bool DELIVERED array.

        Equivalent to calling :meth:`send_packet` once per element, but the
        per-packet work is restructured for batch execution: geometry
        (serving cell, edge degradation, capacity) and the grant ramp are
        computed as numpy arrays over handoff-delimited segments, the loss
        channel is retuned once (speed and offered bitrate are constant
        across the batch, so every packet would retune to the same
        parameters), and instrumentation counters are flushed once per
        batch.  RNG draw order is preserved exactly: one walk of the
        channel (:meth:`~repro.net.channel.GilbertElliott.step_many`'s
        walker) takes the packets outside outage in :meth:`send_packet`'s
        order -- a grant-lottery uniform first where the grant is below
        the offered bitrate, then the chain's transition uniform and, only
        if the chain is Good after it, a residual-loss uniform.  Uniforms
        come in ``rng.random(k)`` blocks, drawn only when the previous one
        is used up, with ``k`` the packets still to walk (each draws at
        least once), so no drawn value goes unused.  Good-state packets
        are decided in bulk runs that stop at a transition draw below
        ``p_gb``, a grant packet or a block end; those packets and
        Bad-state ones are stepped one draw at a time.  Per-packet
        outcomes and the final generator state are identical to the
        scalar path.  (Sole caveat: numpy evaluates the ``z**6`` cell-edge
        term with a different pow kernel than CPython; a 1-ulp
        capacity difference could flip a grant decision only when a
        uniform draw lands within 1 ulp of the threshold, which the
        byte-identity gates on the committed drive results check.)
        """
        if offered_bitrate_mbps <= 0:
            raise ValueError("offered bitrate must be positive")
        times = np.ascontiguousarray(times, dtype=float)
        positions = np.ascontiguousarray(positions, dtype=float)
        if times.shape != positions.shape or times.ndim != 1:
            raise ValueError("times and positions must be matching 1-D arrays")
        n = times.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        params = self.params
        obs = self.obs
        spacing = params.bs_spacing_m

        # Geometry, vectorized (same arithmetic as cell_of/local_capacity).
        cells = np.floor(positions / spacing + 0.5).astype(np.int64)
        z = np.minimum(1.0, np.abs(positions - cells * spacing) / (spacing / 2.0))
        capacity = params.uplink_capacity_mbps * (1.0 - 0.70 * z**6)

        # Attach / handoffs: serving-cell state changes only at cell
        # boundaries, so outage and ramp state are piecewise constant over
        # handoff-delimited segments.
        if self._serving_cell is None:
            self._serving_cell = int(cells[0])
            self._ramp_start = float(times[0]) - params.grant_ramp_s  # pre-attached
        prev_cells = np.empty_like(cells)
        prev_cells[0] = self._serving_cell
        prev_cells[1:] = cells[:-1]
        handoffs = np.flatnonzero(cells != prev_cells)
        # Constant per batch: the gap depends only on speed (scalar libm
        # exp, bit-identical to the per-packet path).
        gap = self.handoff_interruption_s(speed_mps) if handoffs.size else 0.0

        outage = np.empty(n, dtype=bool)
        granted = np.empty(n, dtype=float)
        ramp = params.grant_ramp_s
        segment_start = 0
        bounds = handoffs.tolist()
        bounds.append(n)
        for next_handoff in bounds:
            if segment_start < next_handoff:
                seg = slice(segment_start, next_handoff)
                seg_times = times[seg]
                outage[seg] = seg_times < self._outage_until
                elapsed = seg_times - self._ramp_start
                seg_cap = capacity[seg]
                granted[seg] = np.where(
                    elapsed < ramp, seg_cap * elapsed / ramp, seg_cap
                )
            if next_handoff == n:
                break
            h = next_handoff
            t = float(times[h])
            self._serving_cell = int(cells[h])
            self.handoff_count += 1
            self._outage_until = t + gap
            self._ramp_start = self._outage_until
            if obs.enabled:
                obs.count("net.handoffs", link="lte")
                obs.observe("net.handoff_gap_s", gap, link="lte")
                obs.instant("net.handoff", ts=t, track="net", cell=self._serving_cell)
            segment_start = h

        outage_drops = int(outage.sum())
        if outage_drops:
            obs.count("net.outage_drops", outage_drops, link="lte")

        # Mechanism 4 parameters are constant across the batch; the scalar
        # path retunes to these same values before every step it takes.
        utilization = min(
            1.0, offered_bitrate_mbps / params.uplink_capacity_mbps
        )
        stationary = min(
            0.5,
            params.base_loss
            + params.congestion_loss_coeff * utilization**3
            + params.fading_loss_coeff
            * (speed_mps / params.fading_speed_ref_mps)
            * utilization**2,
        )
        channel = self._channel
        channel.retune(stationary, burst_length=params.burst_length(speed_mps))

        # Per-packet decisions: the grant lottery and the channel's
        # transition/residual draws share one generator, so one walk over
        # the packets outside outage draws them in scalar order.
        todo = np.flatnonzero(~outage)
        todo_granted = granted[todo]
        grant_slots = np.flatnonzero(todo_granted < offered_bitrate_mbps)
        drop_probability = 1.0 - todo_granted[grant_slots] / offered_bitrate_mbps
        lost, grant_drops = channel._walk(
            todo.size, grant_slots.tolist(), drop_probability.tolist()
        )
        if grant_drops:
            obs.count("net.grant_drops", grant_drops, link="lte")
        delivered = np.zeros(n, dtype=bool)
        delivered[todo] = ~lost
        return delivered
