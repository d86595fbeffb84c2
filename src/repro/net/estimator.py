"""Network-quality estimation (an EdgeOSv open problem, paper SIV-C).

"In our EdgeOSv, it requires knowing the network quality to other edge
nodes, which has not been well solved."  This module provides the standard
engineering answer: per-link EWMA estimators fed by probe observations,
with RFC 6298-style RTT variance tracking and a freshness-aware confidence
signal.  Elastic Management can drive its pipeline choices from the
estimator's view of the world instead of oracle link state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import LinkModel

__all__ = ["LinkEstimate", "LinkEstimator"]


@dataclass(frozen=True)
class LinkEstimate:
    """The estimator's current belief about a link."""

    bandwidth_mbps: float
    rtt_s: float
    rtt_var_s: float
    loss_rate: float
    age_s: float
    samples: int

    def as_link(self, name: str = "estimated") -> LinkModel:
        """A LinkModel the placement evaluator can consume."""
        return LinkModel(
            name=name,
            bandwidth_mbps=max(0.01, self.bandwidth_mbps),
            rtt_s=max(0.0, self.rtt_s),
            loss_rate=min(0.99, max(0.0, self.loss_rate)),
        )


class LinkEstimator:
    """EWMA estimator over probe observations of one link.

    ``observe`` takes what a probe actually saw: bytes moved, how long it
    took, the measured RTT and whether any probe packets were lost.
    """

    def __init__(self, alpha: float = 0.2, rtt_beta: float = 0.25):
        if not 0.0 < alpha <= 1.0 or not 0.0 < rtt_beta <= 1.0:
            raise ValueError("smoothing factors must be in (0, 1]")
        self.alpha = alpha
        self.rtt_beta = rtt_beta
        self._bandwidth: float | None = None
        self._rtt: float | None = None
        self._rtt_var = 0.0
        self._loss: float = 0.0
        self._samples = 0
        self._last_update: float = 0.0

    def observe(
        self,
        time_s: float,
        nbytes: float,
        duration_s: float,
        rtt_s: float,
        lost_fraction: float = 0.0,
    ) -> None:
        """Feed one probe result into the estimator."""
        if duration_s <= 0 or nbytes < 0:
            raise ValueError("probe must have positive duration, non-negative bytes")
        if not 0.0 <= lost_fraction <= 1.0:
            raise ValueError("lost fraction must be in [0, 1]")
        measured_mbps = nbytes * 8.0 / duration_s / 1e6
        if self._bandwidth is None:
            self._bandwidth = measured_mbps
            self._rtt = rtt_s
            self._rtt_var = rtt_s / 2.0
            self._loss = lost_fraction
        else:
            self._bandwidth += self.alpha * (measured_mbps - self._bandwidth)
            self._rtt_var += self.rtt_beta * (abs(rtt_s - self._rtt) - self._rtt_var)
            self._rtt += self.rtt_beta * (rtt_s - self._rtt)
            self._loss += self.alpha * (lost_fraction - self._loss)
        self._samples += 1
        self._last_update = time_s

    def estimate(self, now_s: float) -> LinkEstimate:
        if self._samples == 0:
            raise RuntimeError("no observations yet")
        return LinkEstimate(
            bandwidth_mbps=float(self._bandwidth),
            rtt_s=float(self._rtt),
            rtt_var_s=float(self._rtt_var),
            loss_rate=float(self._loss),
            age_s=max(0.0, now_s - self._last_update),
            samples=self._samples,
        )

    def probe_link(self, time_s: float, link: LinkModel, probe_bytes: float = 100_000) -> None:
        """Convenience: synthesize a probe against a ground-truth link."""
        duration = link.transfer_time(probe_bytes)
        self.observe(
            time_s,
            probe_bytes,
            duration - link.one_way_latency_s if duration > link.one_way_latency_s else duration,
            rtt_s=link.rtt_s,
            lost_fraction=link.loss_rate,
        )
