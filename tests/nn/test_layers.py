"""Unit tests for nn layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential


def numerical_grad(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def test_dense_forward_shape_and_value():
    layer = Dense(3, 2, rng=np.random.default_rng(0))
    layer.W[...] = np.arange(6).reshape(3, 2)
    layer.b[...] = [1.0, -1.0]
    out = layer.forward(np.array([[1.0, 0.0, 0.0]]))
    assert out.shape == (1, 2)
    assert out[0, 0] == pytest.approx(1.0)  # 0*1 + 1 bias
    assert out[0, 1] == pytest.approx(0.0)  # 1*1 - 1 bias


def test_dense_validation():
    with pytest.raises(ValueError):
        Dense(0, 2)


def test_dense_backward_matches_numerical_gradient():
    rng = np.random.default_rng(1)
    layer = Dense(4, 3, rng=rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss():
        out = layer.forward(x)
        return 0.5 * ((out - target) ** 2).sum()

    out = layer.forward(x, training=True)
    layer.backward(out - target)
    num_dW = numerical_grad(loss, layer.W)
    num_db = numerical_grad(loss, layer.b)
    assert np.allclose(layer.dW, num_dW, atol=1e-5)
    assert np.allclose(layer.db, num_db, atol=1e-5)


def test_dense_backward_requires_training_forward():
    layer = Dense(2, 2)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 2)))


def test_relu_forward_and_backward():
    layer = ReLU()
    x = np.array([[-1.0, 2.0, 0.0]])
    out = layer.forward(x, training=True)
    assert np.array_equal(out, [[0.0, 2.0, 0.0]])
    grad = layer.backward(np.ones_like(x))
    assert np.array_equal(grad, [[0.0, 1.0, 0.0]])


def test_conv_forward_known_value():
    layer = Conv2D(1, 1, kernel=2, rng=np.random.default_rng(0))
    layer.W[...] = np.ones((1, 1, 2, 2))
    layer.b[...] = 0.0
    x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
    out = layer.forward(x)
    # Each output = sum of 2x2 window.
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0, 0, 0] == pytest.approx(0 + 1 + 3 + 4)
    assert out[0, 0, 1, 1] == pytest.approx(4 + 5 + 7 + 8)


def test_conv_padding_preserves_size():
    layer = Conv2D(2, 4, kernel=3, pad=1)
    out = layer.forward(np.zeros((1, 2, 8, 8)))
    assert out.shape == (1, 4, 8, 8)
    assert layer.output_shape((2, 8, 8)) == (4, 8, 8)


def test_conv_stride():
    layer = Conv2D(1, 1, kernel=2, stride=2)
    out = layer.forward(np.zeros((1, 1, 8, 8)))
    assert out.shape == (1, 1, 4, 4)


def test_conv_backward_matches_numerical_gradient():
    rng = np.random.default_rng(2)
    layer = Conv2D(2, 3, kernel=3, pad=1, rng=rng)
    x = rng.normal(size=(2, 2, 5, 5))
    target = rng.normal(size=(2, 3, 5, 5))

    def loss():
        out = layer.forward(x)
        return 0.5 * ((out - target) ** 2).sum()

    out = layer.forward(x, training=True)
    dx = layer.backward(out - target)
    num_dW = numerical_grad(loss, layer.W)
    num_dx = numerical_grad(loss, x)
    assert np.allclose(layer.dW, num_dW, atol=1e-4)
    assert np.allclose(dx, num_dx, atol=1e-4)


def test_conv_flops_formula():
    layer = Conv2D(3, 8, kernel=3)
    # Output 8 x 6 x 6 on an 8x8 input; 2*8*36*27 FLOPs.
    assert layer.flops((3, 8, 8)) == 2 * 8 * 6 * 6 * 3 * 3 * 3


def test_conv_validation():
    with pytest.raises(ValueError):
        Conv2D(1, 1, kernel=0)


def test_maxpool_forward_backward():
    layer = MaxPool2D(2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = layer.forward(x, training=True)
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4.0
    dx = layer.backward(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 1, 1] == 1.0 and dx.sum() == 1.0


def test_maxpool_output_shape():
    assert MaxPool2D(2).output_shape((4, 10, 10)) == (4, 5, 5)


def test_flatten_roundtrip():
    layer = Flatten()
    x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
    out = layer.forward(x, training=True)
    assert out.shape == (2, 12)
    back = layer.backward(out)
    assert back.shape == x.shape
