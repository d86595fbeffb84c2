"""Figure 2's shape holds across seeds, not only at the committed seed 42."""

import numpy as np
import pytest

from repro.net import VIDEO_1080P, VIDEO_720P, run_drive_stream

SPEEDS_MPH = (0, 35, 70)


@pytest.mark.parametrize("seed", range(8))
def test_fig2_loss_shape_holds_across_seeds(seed):
    results = {
        (speed, profile.name): run_drive_stream(
            profile, speed, duration_s=300.0, rng=np.random.default_rng(seed)
        )
        for speed in SPEEDS_MPH
        for profile in (VIDEO_720P, VIDEO_1080P)
    }
    for name in ("720P", "1080P"):
        losses = [results[(speed, name)].packet_loss_rate for speed in SPEEDS_MPH]
        assert losses[0] < losses[1] < losses[2], (name, losses)
    for speed in SPEEDS_MPH:
        assert (results[(speed, "1080P")].packet_loss_rate
                > results[(speed, "720P")].packet_loss_rate), speed
        for name in ("720P", "1080P"):
            result = results[(speed, name)]
            assert result.frame_loss_rate > result.packet_loss_rate, (speed, name)
    # The bench's 70 MPH cliff: most high-resolution frames are lost.
    assert results[(70, "1080P")].frame_loss_rate > 0.8
