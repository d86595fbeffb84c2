"""Tests for Haar and CNN vehicle detectors and the Table I harness."""

import hashlib

import numpy as np
import pytest

from repro.hw import catalog
from repro.vision import (
    HaarFeature,
    background_patch,
    integral_image,
    make_patch_dataset,
    rect_sum,
    road_scene,
    table1_rows,
    train_cnn_detector,
    train_haar_detector,
    untrained_cnn_detector,
    vehicle_patch,
)


def test_integral_image_rect_sum_matches_direct():
    rng = np.random.default_rng(0)
    img = rng.random((10, 12))
    ii = integral_image(img)
    assert rect_sum(ii, 3, 2, 5, 4) == pytest.approx(img[2:6, 3:8].sum())
    assert rect_sum(ii, 0, 0, 12, 10) == pytest.approx(img.sum())


def test_integral_image_rejects_non_2d():
    with pytest.raises(ValueError):
        integral_image(np.zeros((2, 2, 2)))


def test_rect_sum_vectorized():
    rng = np.random.default_rng(1)
    img = rng.random((20, 20))
    ii = integral_image(img)
    xs = np.array([0, 5, 10])
    ys = np.array([0, 2, 4])
    sums = rect_sum(ii, xs, ys, 4, 4)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert sums[i] == pytest.approx(img[y : y + 4, x : x + 4].sum())


def test_haar_feature_validation():
    with pytest.raises(ValueError):
        HaarFeature("diagonal", 0, 0, 1, 1)


def test_haar_feature_two_h_sign():
    # Image brighter on the right: two_h (right - left) should be positive.
    img = np.zeros((24, 24))
    img[:, 12:] = 1.0
    ii = integral_image(img)
    feature = HaarFeature("two_h", 0.0, 0.0, 1.0, 1.0)
    assert feature.evaluate(ii, 0, 0, 24) > 0


def _patches(n, rng):
    positives = [vehicle_patch(24, rng) for _ in range(n)]
    negatives = [background_patch(24, rng) for _ in range(n)]
    return positives, negatives


def test_haar_training_validation():
    with pytest.raises(ValueError):
        train_haar_detector([], [np.zeros((24, 24))])


@pytest.mark.parametrize(
    "shapes, kwargs, match",
    [
        (((16, 16), (24, 24)), {}, r"window=24 .*\(16, 16\)"),
        (((24, 24), (40, 40)), {}, r"window=24 .*\(40, 40\)"),
        (((24, 24), (24, 24)), {"window": 16}, r"window=16 .*\(24, 24\)"),
        (((24, 24), (24, 24)), {"rounds": 0}, "rounds"),
        (((24, 24), (24, 24)), {"candidates": 0}, "candidates"),
    ],
    ids=["patch-too-small", "patch-too-large", "window-mismatch", "no-rounds", "no-candidates"],
)
def test_haar_training_rejects_bad_shapes_and_counts(shapes, kwargs, match):
    positive, negative = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ValueError, match=match):
        train_haar_detector([positive], [negative], **kwargs)


@pytest.mark.parametrize("kind", ["two_h", "two_v", "three_h"])
def test_haar_feature_evaluates_a_sample_stack_like_each_image(kind):
    """An (h+1, w+1, n) integral-image stack gives each image's own response."""
    rng = np.random.default_rng(5)
    iis = [integral_image(rng.random((24, 24))) for _ in range(9)]
    stack = np.stack(iis, axis=-1)
    for _ in range(4):
        fw, fh = rng.uniform(0.3, 0.9), rng.uniform(0.2, 0.6)
        feature = HaarFeature(kind, rng.uniform(0, 1 - fw), rng.uniform(0, 1 - fh), fw, fh)
        stacked = feature.evaluate(stack, 0, 0, 24)
        assert stacked.shape == (9,)
        assert stacked.tolist() == [feature.evaluate(ii, 0, 0, 24) for ii in iis]


def test_table1_haar_cascade_is_pinned():
    """Every trained threshold and weight, not just the rectangle counts
    Table I reads, matches the cascade trained as ``table1._train_haar`` does."""
    rng = np.random.default_rng(0)
    positives, negatives = _patches(60, rng)
    detector = train_haar_detector(positives, negatives, rounds=15, rng=rng)
    digest = hashlib.sha256()
    for clf in detector.classifiers:
        f = clf.feature
        digest.update(
            f"{f.kind}|{f.fx!r}|{f.fy!r}|{f.fw!r}|{f.fh!r}|{clf.threshold!r}|"
            f"{clf.polarity}|{clf.alpha!r}\n".encode()
        )
    assert digest.hexdigest() == (
        "bc981556d67a304347a2cd316fa766daf584a3e785d15403f62ef6465234634e"
    )


def test_haar_detector_separates_patches():
    rng = np.random.default_rng(0)
    positives, negatives = _patches(50, rng)
    detector = train_haar_detector(positives, negatives, rounds=12, rng=rng)
    test_pos = [vehicle_patch(24, rng) for _ in range(20)]
    test_neg = [background_patch(24, rng) for _ in range(20)]
    tp = sum(detector.classify_patch(p) for p in test_pos)
    fp = sum(detector.classify_patch(p) for p in test_neg)
    assert tp >= 16  # >= 80% recall
    assert fp <= 4   # <= 20% false positives


def test_haar_detect_finds_vehicle_region_on_scene():
    rng = np.random.default_rng(3)
    positives, negatives = _patches(50, rng)
    detector = train_haar_detector(positives, negatives, rounds=12, rng=rng)
    img, truth = road_scene(width=160, height=120, rng=rng, vehicle_count=1)
    detections, ops = detector.detect(img, step=4)
    assert ops > 0
    vx, vy, vw, vh = truth.vehicle_boxes[0]
    hit = any(
        vx - d.size <= d.x <= vx + vw and vy - d.size <= d.y <= vy + vh
        for d in detections
    )
    assert hit


def test_haar_scan_ops_analytic_matches_executed():
    rng = np.random.default_rng(4)
    positives, negatives = _patches(30, rng)
    detector = train_haar_detector(positives, negatives, rounds=5, rng=rng)
    img, _ = road_scene(width=100, height=80, rng=rng)
    _dets, executed = detector.detect(img, step=2)
    assert executed == detector.scan_ops(100, 80, step=2)


def test_cnn_detector_separates_patches():
    rng = np.random.default_rng(0)
    detector = train_cnn_detector(patch_size=32, train_count=120, epochs=6, rng=rng)
    correct = 0
    for _ in range(20):
        correct += detector.classify_patch(vehicle_patch(32, rng)) is True
        correct += detector.classify_patch(background_patch(32, rng)) is False
    assert correct >= 32  # >= 80% accuracy over 40 trials


def test_cnn_scan_flops_scales_with_area():
    detector = untrained_cnn_detector(patch_size=32)
    small = detector.scan_flops(160, 120)
    large = detector.scan_flops(640, 480)
    assert large > 10 * small


def test_cnn_scan_flops_analytic_matches_executed():
    detector = untrained_cnn_detector(patch_size=32)
    img, _ = road_scene(width=160, height=120, rng=np.random.default_rng(0))
    _dets, executed = detector.detect(img)
    assert executed == detector.scan_flops(160, 120)


def test_cnn_scan_flops_ignore_training():
    """Table I builds its CNN untrained: the op count reads only the shape."""
    trained = train_cnn_detector(
        patch_size=32, train_count=20, epochs=1, channels=20, rng=np.random.default_rng(1)
    )
    untrained = untrained_cnn_detector(patch_size=32, channels=20)
    assert trained.scan_flops(640, 480) == untrained.scan_flops(640, 480)


def test_patch_dataset_is_balanced():
    x, y = make_patch_dataset(40, 16, np.random.default_rng(0))
    assert x.shape == (40, 1, 16, 16)
    assert (y == 0).sum() == 20 and (y == 1).sum() == 20


def test_table1_ordering_and_ratios():
    """The paper's Table I: lane << Haar << CNN, with Haar ~51x faster
    than the deep detector."""
    rows = table1_rows(rng=np.random.default_rng(0))
    lane, haar, cnn = (row.latency_ms for row in rows)
    assert lane < haar < cnn
    assert 20 < cnn / haar < 110  # paper: 51.9x
    assert 5 < haar / lane < 80   # paper: 19.9x


def test_table1_faster_processor_gives_lower_latency():
    rows_cpu = table1_rows(rng=np.random.default_rng(0))
    rows_v100 = table1_rows(
        processor=catalog.tesla_v100(), rng=np.random.default_rng(0)
    )
    # Same op counts, faster DNN silicon.
    assert rows_v100[2].latency_ms < rows_cpu[2].latency_ms
    assert rows_v100[2].ops == rows_cpu[2].ops
