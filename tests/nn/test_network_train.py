"""Tests for Sequential, training, and the model zoo."""

import numpy as np
import pytest

from repro.nn import (
    INCEPTION_V3,
    SGD,
    SPEC_REGISTRY,
    Sequential,
    cross_entropy,
    make_mlp,
    make_tiny_cnn,
    softmax,
    train_classifier,
)
from repro.hw import catalog


def two_blob_data(n=200, seed=0):
    """Linearly separable 2-class blobs."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=[-2.0, 0.0], scale=0.5, size=(n // 2, 2))
    x1 = rng.normal(loc=[2.0, 0.0], scale=0.5, size=(n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


def test_softmax_rows_sum_to_one():
    probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[0].argmax() == 2


def test_softmax_is_shift_invariant_and_stable():
    a = softmax(np.array([[1000.0, 1001.0]]))
    b = softmax(np.array([[0.0, 1.0]]))
    assert np.allclose(a, b)


def test_cross_entropy_perfect_prediction_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert cross_entropy(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)


def test_network_requires_layers():
    with pytest.raises(ValueError):
        Sequential([], input_shape=(2,))


def test_mlp_shapes_and_param_count():
    net = make_mlp(4, (8,), 3)
    assert net.output_shape() == (3,)
    # 4*8+8 + 8*3+3 = 67
    assert net.param_count == 67
    assert net.size_bytes() == 67 * 4.0


def test_mlp_flops():
    net = make_mlp(4, (8,), 3)
    # Dense: 2*4*8, ReLU: 8, Dense: 2*8*3
    assert net.flops_per_sample() == 64 + 8 + 48


def test_training_learns_separable_blobs():
    x, y = two_blob_data()
    net = make_mlp(2, (8,), 2, seed=1)
    result = train_classifier(net, x, y, epochs=30, optimizer=SGD(lr=0.1),
                              rng=np.random.default_rng(0))
    assert result.train_accuracy > 0.95
    assert result.losses[-1] < result.losses[0]


def test_training_validates_inputs():
    net = make_mlp(2, (4,), 2)
    with pytest.raises(ValueError):
        train_classifier(net, np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        train_classifier(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_sgd_validation():
    with pytest.raises(ValueError):
        SGD(lr=0.0)
    with pytest.raises(ValueError):
        SGD(momentum=1.0)


def test_frozen_params_do_not_move():
    x, y = two_blob_data()
    net = make_mlp(2, (8,), 2, seed=1)
    first_dense = [l for l in net.layers if l.params][0]
    before = first_dense.W.copy()
    train_classifier(
        net, x, y, epochs=3, frozen={id(first_dense.W), id(first_dense.b)},
        rng=np.random.default_rng(0),
    )
    assert np.array_equal(first_dense.W, before)


def test_weight_roundtrip_save_load(tmp_path):
    net = make_mlp(3, (5,), 2, seed=3)
    x = np.random.default_rng(0).normal(size=(4, 3))
    expected = net.forward(x)
    path = str(tmp_path / "weights.npz")
    net.save(path)
    other = make_mlp(3, (5,), 2, seed=99)
    assert not np.allclose(other.forward(x), expected)
    other.load(path)
    assert np.allclose(other.forward(x), expected)


def test_set_weights_shape_mismatch_raises():
    net = make_mlp(3, (5,), 2)
    other = make_mlp(3, (6,), 2)
    with pytest.raises(ValueError):
        net.set_weights(other.get_weights())


def test_tiny_cnn_runs_and_counts_flops():
    net = make_tiny_cnn(input_shape=(1, 16, 16), classes=2)
    out = net.forward(np.zeros((3, 1, 16, 16)))
    assert out.shape == (3, 2)
    assert net.flops_per_sample() > 0


def test_tiny_cnn_trains_on_trivial_task():
    rng = np.random.default_rng(0)
    # Class 1 images have a bright centre block.
    x0 = rng.normal(0.0, 0.1, size=(40, 1, 16, 16))
    x1 = rng.normal(0.0, 0.1, size=(40, 1, 16, 16))
    x1[:, :, 6:10, 6:10] += 2.0
    x = np.vstack([x0, x1])
    y = np.array([0] * 40 + [1] * 40)
    net = make_tiny_cnn(input_shape=(1, 16, 16), classes=2, seed=2)
    result = train_classifier(net, x, y, epochs=8, batch_size=16,
                              optimizer=SGD(lr=0.05), rng=rng)
    assert result.train_accuracy > 0.9


def test_inception_spec_figure3_times():
    """Inception v3 through the Figure 3 catalog: ordering and magnitudes."""
    times_ms = {
        label: INCEPTION_V3.inference_time_s(factory()) * 1e3
        for label, factory in catalog.FIGURE3_DEVICES
    }
    # Paper: 334.5, 242.8, 114.3, 153.9, 26.8 -- check each within 15%.
    paper = {"DSP-based": 334.5, "GPU#1": 242.8, "GPU#2": 114.3,
             "CPU-based": 153.9, "GPU#3": 26.8}
    for label, expected in paper.items():
        assert times_ms[label] == pytest.approx(expected, rel=0.15), label


def test_spec_registry_contents():
    assert "inception_v3" in SPEC_REGISTRY
    assert SPEC_REGISTRY["inception_v3"].size_bytes == pytest.approx(23.9e6 * 4)

