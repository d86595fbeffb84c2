"""Tests for retry policies and the circuit breaker."""

import pytest

from repro.faults import BreakerState, CircuitBreaker, RetryPolicy


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=2, same_tier_attempts=3)
    with pytest.raises(ValueError):
        RetryPolicy().delay_s(-1)


def test_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(
        max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
    )
    assert [policy.delay_s(i) for i in range(5)] == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
    assert policy.delay_s(0) == pytest.approx(0.1)
    assert policy.delay_s(10) == 0.5


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout_s=0.0)


def test_breaker_trips_after_threshold_and_cools_down():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
    for t in (0.0, 1.0):
        assert breaker.allow(t)
        breaker.record_failure(t)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow(2.0)
    breaker.record_failure(2.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 1

    # Open: short-circuit until the cooldown elapses.
    assert not breaker.allow(5.0)
    assert breaker.short_circuits == 1
    assert breaker.allow(12.0)  # half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow(12.5)  # only one probe at a time

    breaker.record_success(13.0)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_failures == 0
    assert breaker.allow(13.5)


def test_failed_probe_reopens_with_fresh_cooldown():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0)
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow(10.0)
    breaker.record_failure(10.0)
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow(19.9)
    assert breaker.allow(20.0)


def test_success_resets_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    breaker.record_success(2.0)
    breaker.record_failure(3.0)
    breaker.record_failure(4.0)
    assert breaker.state is BreakerState.CLOSED  # never hit 3 in a row
