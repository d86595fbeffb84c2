"""Table I harness: replayed training draws and the committed rows."""

import json
import os

import numpy as np

from repro.vision import (
    background_patch,
    replay_cnn_training_draws,
    road_scene,
    table1_rows,
    train_cnn_detector,
    train_haar_detector,
    untrained_cnn_detector,
    vehicle_patch,
)

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    os.pardir,
    "benchmarks",
    "results",
    "table1_algorithms.json",
)


def test_replay_leaves_the_generator_where_training_does():
    trained_rng = np.random.default_rng(7)
    train_cnn_detector(patch_size=16, train_count=24, epochs=2, channels=4, rng=trained_rng)
    replayed_rng = np.random.default_rng(7)
    replay_cnn_training_draws(replayed_rng, patch_size=16, train_count=24, epochs=2)
    assert replayed_rng.bit_generator.state == trained_rng.bit_generator.state


def _state_after_table1(haar=None, cnn=None):
    rng = np.random.default_rng(0)
    table1_rows(haar=haar, cnn=cnn, rng=rng)
    return rng.bit_generator.state


def test_table1_draws_do_not_depend_on_which_detector_is_given():
    patch_rng = np.random.default_rng(1)
    haar = train_haar_detector(
        [vehicle_patch(24, patch_rng) for _ in range(10)],
        [background_patch(24, patch_rng) for _ in range(10)],
        rounds=2,
        rng=patch_rng,
    )
    cnn = untrained_cnn_detector(patch_size=32, channels=4)

    neither = _state_after_table1()
    assert _state_after_table1(haar=haar) == neither
    assert _state_after_table1(cnn=cnn) == neither

    # Given both detectors, Table I trains nothing and draws only its scene.
    scene_only = np.random.default_rng(0)
    road_scene(640, 480, rng=scene_only, vehicle_count=1)
    assert _state_after_table1(haar=haar, cnn=cnn) == scene_only.bit_generator.state


def test_table1_rows_match_the_committed_results_exactly():
    with open(RESULTS_PATH) as handle:
        committed = json.load(handle)["rows"]
    rows = table1_rows(rng=np.random.default_rng(0))
    assert [row.name for row in rows] == [row["algorithm"] for row in committed]
    for row, pinned in zip(rows, committed):
        assert row.ops == pinned["ops"], row.name
        assert row.latency_ms == pinned["measured_ms"], row.name
