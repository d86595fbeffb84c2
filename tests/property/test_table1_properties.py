"""Table I's shape holds across seeds, not only at the committed seed 0."""

import numpy as np
import pytest

from repro.vision import table1_rows


@pytest.mark.parametrize("seed", range(8))
def test_table1_ordering_and_cnn_gap_hold_across_seeds(seed):
    lane, haar, cnn = (row.latency_ms for row in table1_rows(rng=np.random.default_rng(seed)))
    assert lane < haar < cnn
    assert 20 < cnn / haar < 110  # paper: 51.9x; the bench asserts the same band
