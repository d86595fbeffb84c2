"""Property-based tests for mobility and privacy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgeos import LocationFuzzer, PseudonymManager
from repro.topology import SpeedProfile

knots_strategy = st.lists(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    min_size=1, max_size=8,
).map(lambda speeds: [(10.0 * i, s) for i, s in enumerate(speeds)])


@given(knots=knots_strategy,
       t1=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
       dt=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=150)
def test_position_is_nondecreasing_for_nonnegative_speeds(knots, t1, dt):
    profile = SpeedProfile(knots)
    assert profile.position(t1 + dt) >= profile.position(t1) - 1e-9


@given(knots=knots_strategy,
       t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=150)
def test_speed_stays_within_knot_envelope(knots, t):
    profile = SpeedProfile(knots)
    speeds = [s for _t, s in knots]
    assert min(speeds) - 1e-9 <= profile.speed(t) <= max(speeds) + 1e-9


@given(vehicle=st.text(min_size=1, max_size=10),
       period=st.floats(min_value=1.0, max_value=3600.0, allow_nan=False),
       t=st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False))
@settings(max_examples=150)
def test_pseudonym_verifies_at_issue_time(vehicle, period, t):
    manager = PseudonymManager(vehicle, b"secret", rotation_period_s=period)
    token = manager.pseudonym(t)
    assert manager.verify(token, t)
    assert len(token) == 16


@given(grid=st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
       x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       y=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200)
def test_location_fuzzing_error_is_bounded(grid, x, y):
    fuzzer = LocationFuzzer(grid_m=grid)
    gx, gy = fuzzer.generalize(x, y)
    displacement = ((gx - x) ** 2 + (gy - y) ** 2) ** 0.5
    # The worst case is a cell corner: half the cell diagonal away.
    assert displacement <= grid * 2**0.5 / 2 + 1e-6
    # Idempotence: generalizing a cell centre returns itself.
    assert fuzzer.generalize(gx, gy) == (gx, gy)
