"""The executor's retry policy: exponential backoff and tier failover.

A :class:`RetryPolicy` is pure arithmetic over the attempt number, with
no clock of its own; the executor waits out its delays on the sim clock.
Determinism matters more than jitter here: backoff delays are exact, so
two runs of the same seeded scenario replay identical retry schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for one unit of work.

    ``same_tier_attempts`` is executor-specific: how many attempts to burn
    on the originally-placed tier before failing over to a surviving one.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    same_tier_attempts: int = 2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 1 <= self.same_tier_attempts <= self.max_attempts:
            raise ValueError("same_tier_attempts must be in [1, max_attempts]")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based failure count)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
