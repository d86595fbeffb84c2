"""Tests for the retry policy."""

import pytest

from repro.faults import RetryPolicy


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
