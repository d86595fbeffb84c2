"""Reusable resilience primitives: retry policies and circuit breakers.

These are deliberately clock-agnostic -- a :class:`RetryPolicy` is pure
arithmetic over the attempt number, and a :class:`CircuitBreaker` takes
``now_s`` explicitly -- so the same objects work inside the simulation
(executor retries on the sim clock) and outside it (the uplink migrator's
per-round wall-clock loop).  Determinism matters more than jitter here:
backoff delays are exact, so two runs of the same seeded scenario replay
identical retry schedules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["RetryPolicy", "BreakerState", "CircuitBreaker", "CircuitOpenError"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for one unit of work.

    ``same_tier_attempts`` is executor-specific: how many attempts to burn
    on the originally-placed tier before failing over to a surviving one.
    ``attempt_timeout_s`` bounds a single attempt (racing it against a
    deadline) so work stuck behind a dead component cannot hang a job.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    same_tier_attempts: int = 2
    attempt_timeout_s: float | None = None

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

class BreakerState(enum.Enum):
    """Classic three-state circuit-breaker lifecycle."""

    CLOSED = "closed"        # healthy: requests flow
    OPEN = "open"            # tripped: requests short-circuit
    HALF_OPEN = "half_open"  # cooling done: one probe allowed through


class CircuitOpenError(RuntimeError):
    """Raised by callers that treat a short-circuited request as an error."""


class CircuitBreaker:
    """Failure-counting breaker guarding an unreliable dependency.

    ``failure_threshold`` consecutive failures trip the breaker OPEN; after
    ``reset_timeout_s`` it admits a single HALF_OPEN probe.  A successful
    probe closes it, a failed one re-opens it (restarting the cooldown).
    """

    def __init__(self, failure_threshold: int = 3, reset_timeout_s: float = 30.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        # Lifetime counters (observability).
        self.opens = 0
        self.failures = 0
        self.successes = 0
        self.short_circuits = 0

    def allow(self, now_s: float) -> bool:
        """Whether a request may proceed at ``now_s`` (may move to HALF_OPEN)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now_s - (self.opened_at_s or 0.0) >= self.reset_timeout_s:
                self.state = BreakerState.HALF_OPEN
                return True
            self.short_circuits += 1
            return False
        # HALF_OPEN: exactly one probe is in flight; hold the rest.
        self.short_circuits += 1
        return False

    def record_success(self, now_s: float) -> None:
        """Report that a permitted request succeeded."""
        self.successes += 1
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED
        self.opened_at_s = None

    def record_failure(self, now_s: float) -> None:
        """Report that a permitted request failed."""
        self.failures += 1
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state is not BreakerState.OPEN:
                self.opens += 1
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
