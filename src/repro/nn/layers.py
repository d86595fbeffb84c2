"""Neural-network layers in pure numpy.

This is the substrate beneath libvdap's model library and pBEAM (paper
SIV-E): enough of a deep-learning stack to *train*, *compress* and
*transfer* real models, with per-layer FLOP accounting so the platform's
cost models operate on mechanistic numbers rather than guesses.

Conventions: inputs are batched with shape (N, ...); every layer implements
``forward``/``backward``, exposes trainable arrays via ``params`` (a dict of
name -> array, with matching ``grads``) and reports ``flops(input_shape)``
for one sample.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Conv2D", "MaxPool2D", "Flatten"]


class Layer:
    """Base layer: stateless by default (no params)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-add-counted FLOPs for ONE sample; default free."""
        return 0

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Dense(Layer):
    """Fully connected layer: y = x W + b, with He initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.W = rng.normal(0.0, scale, size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() before forward(training=True)")
        self.dW = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.W.T

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}

    def flops(self, input_shape):
        return 2 * self.W.shape[0] * self.W.shape[1]

    def output_shape(self, input_shape):
        return (self.W.shape[1],)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() before forward(training=True)")
        return grad * self._mask

    def flops(self, input_shape):
        return int(np.prod(input_shape))


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> (N * out_h * out_w, C * kh * kw) patch matrix."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    # Strided view over sliding windows, then reshape to a matrix.
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


class Conv2D(Layer):
    """2D convolution (valid padding unless ``pad`` given), NCHW layout."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        rng: np.random.Generator | None = None,
    ):
        if kernel < 1 or stride < 1 or pad < 0:
            raise ValueError("invalid conv geometry")
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)
        self.W = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel, kernel))
        self.b = np.zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.stride = stride
        self.pad = pad
        self._cache = None

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.pad == 0:
            return x
        return np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xp = self._pad(x)
        oc, ic, kh, kw = self.W.shape
        cols, out_h, out_w = _im2col(xp, kh, kw, self.stride)
        w_mat = self.W.reshape(oc, -1)
        out = cols @ w_mat.T + self.b
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, oc).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape, xp.shape, cols)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_shape, xp_shape, cols = self._cache
        n, oc, out_h, out_w = grad.shape
        _, ic, kh, kw = self.W.shape
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)
        self.dW = (grad_mat.T @ cols).reshape(self.W.shape)
        self.db = grad_mat.sum(axis=0)
        # Gradient w.r.t. input: scatter col gradients back.
        dcols = grad_mat @ self.W.reshape(oc, -1)
        dxp = np.zeros(xp_shape)
        dpatches = dcols.reshape(n, out_h, out_w, ic, kh, kw)
        for i in range(out_h):
            for j in range(out_w):
                hs, ws = i * self.stride, j * self.stride
                dxp[:, :, hs : hs + kh, ws : ws + kw] += dpatches[:, i, j]
        if self.pad:
            dxp = dxp[:, :, self.pad : -self.pad, self.pad : -self.pad]
        return dxp

    @property
    def params(self):
        return {"W": self.W, "b": self.b}

    @property
    def grads(self):
        return {"W": self.dW, "b": self.db}

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oc, ic, kh, kw = self.W.shape
        out_h = (h + 2 * self.pad - kh) // self.stride + 1
        out_w = (w + 2 * self.pad - kw) // self.stride + 1
        return (oc, out_h, out_w)

    def flops(self, input_shape):
        oc, out_h, out_w = self.output_shape(input_shape)
        _, ic, kh, kw = self.W.shape
        return 2 * oc * out_h * out_w * ic * kh * kw


class MaxPool2D(Layer):
    """Max pooling with square window and equal stride."""

    def __init__(self, size: int = 2):
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        out_h, out_w = h // s, w // s
        view = x[:, :, : out_h * s, : out_w * s].reshape(n, c, out_h, s, out_w, s)
        out = view.max(axis=(3, 5))
        if training:
            self._cache = (x.shape, view, out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_shape, view, out = self._cache
        s = self.size
        mask = view == out[:, :, :, None, :, None]
        dview = mask * grad[:, :, :, None, :, None]
        n, c, h, w = x_shape
        out_h, out_w = h // s, w // s
        dx = np.zeros(x_shape)
        dx[:, :, : out_h * s, : out_w * s] = dview.reshape(n, c, out_h * s, out_w * s)
        return dx

    def output_shape(self, input_shape):
        c, h, w = input_shape
        return (c, h // self.size, w // self.size)

    def flops(self, input_shape):
        return int(np.prod(input_shape))


class Flatten(Layer):
    """(N, ...) -> (N, prod(...))."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        return grad.reshape(self._shape)

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)
