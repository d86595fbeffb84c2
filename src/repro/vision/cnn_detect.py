"""CNN sliding-window vehicle detection.

The "TensorFlow-based deep learning" detector of Table I: a convolutional
classifier slid over an image pyramid.  Orders of magnitude more arithmetic
per window than the Haar cascade -- exactly the gap the paper measures
(~51x slower than Haar on the same vCPU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.network import Sequential
from ..nn.train import SGD, train_classifier
from ..nn.zoo import make_tiny_cnn
from .haar import Detection
from .image import background_patch, vehicle_patch

__all__ = [
    "CnnDetector",
    "make_patch_dataset",
    "replay_cnn_training_draws",
    "train_cnn_detector",
    "untrained_cnn_detector",
]


def make_patch_dataset(
    count: int, patch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced vehicle/background patches as (N, 1, S, S) plus labels."""
    half = count // 2
    xs = []
    for _ in range(half):
        xs.append(background_patch(patch_size, rng))
    for _ in range(count - half):
        xs.append(vehicle_patch(patch_size, rng))
    x = np.stack(xs)[:, None, :, :]
    y = np.array([0] * half + [1] * (count - half))
    return x, y


@dataclass
class CnnDetector:
    """A patch classifier plus the multi-scale sliding-window driver."""

    network: Sequential
    patch_size: int = 32

    def classify_patch(self, patch: np.ndarray) -> bool:
        out = self.network.predict(patch[None, None, :, :])
        return bool(out[0] == 1)

    def detect(
        self,
        img: np.ndarray,
        stride: int = 8,
        scale_factor: float = 1.5,
        max_windows: int | None = None,
    ) -> tuple[list[Detection], int]:
        """Sliding-window detection; returns (detections, flop count).

        All windows of one pyramid scale run through the classifier as a
        single batched forward pass, and the FLOP ledger is folded in once
        per scale -- the same windows, in the same order, as the former
        one-window-per-forward loop (batching the matmuls can move
        per-window probabilities by float ulps, nothing more).
        """
        detections: list[Detection] = []
        flops_per_window = self.network.flops_per_sample()
        total_flops = 0
        size = self.patch_size
        h, w = img.shape
        windows_done = 0
        while size <= min(h, w):
            scale = size / self.patch_size
            step = max(1, int(stride * scale))
            coords = [
                (y, x)
                for y in range(0, h - size + 1, step)
                for x in range(0, w - size + 1, step)
            ]
            if max_windows is not None:
                coords = coords[: max_windows - windows_done]
            if coords:
                batch = np.empty(
                    (len(coords), 1, self.patch_size, self.patch_size),
                    dtype=img.dtype,
                )
                for k, (y, x) in enumerate(coords):
                    crop = img[y : y + size, x : x + size]
                    if scale != 1.0:
                        crop = _downsample(crop, self.patch_size)
                    batch[k, 0] = crop
                probs = self.network.predict_proba(batch)
                total_flops += flops_per_window * len(coords)
                windows_done += len(coords)
                for k, (y, x) in enumerate(coords):
                    score = probs[k, 1]
                    if score > 0.5:
                        detections.append(Detection(x, y, size, float(score)))
            if max_windows is not None and windows_done >= max_windows:
                return detections, total_flops
            size = int(round(size * scale_factor))
        return detections, total_flops

    def scan_flops(
        self,
        width: int,
        height: int,
        stride: int = 8,
        scale_factor: float = 1.5,
    ) -> int:
        """Analytic FLOP count of a full scan without executing it."""
        flops_per_window = self.network.flops_per_sample()
        total = 0
        size = self.patch_size
        while size <= min(width, height):
            scale = size / self.patch_size
            s = max(1, int(stride * scale))
            nx = max(0, (width - size) // s + 1)
            ny = max(0, (height - size) // s + 1)
            total += nx * ny * flops_per_window
            size = int(round(size * scale_factor))
        return total


def _downsample(patch: np.ndarray, target: int) -> np.ndarray:
    """Nearest-neighbour resize to target x target."""
    h, w = patch.shape
    ys = (np.arange(target) * h // target).clip(0, h - 1)
    xs = (np.arange(target) * w // target).clip(0, w - 1)
    return patch[np.ix_(ys, xs)]


def untrained_cnn_detector(patch_size: int = 32, channels: int = 16) -> CnnDetector:
    """The detector :func:`train_cnn_detector` starts from, before training.

    Its architecture, and so its :meth:`CnnDetector.scan_flops`, is the
    trained detector's; only the weights differ.
    """
    network = make_tiny_cnn(
        input_shape=(1, patch_size, patch_size), classes=2, channels=channels, seed=1
    )
    return CnnDetector(network=network, patch_size=patch_size)


def replay_cnn_training_draws(
    rng: np.random.Generator,
    patch_size: int = 32,
    train_count: int = 160,
    epochs: int = 6,
) -> None:
    """Advance ``rng`` exactly as :func:`train_cnn_detector` would, without training.

    Training draws the patch dataset, then one minibatch permutation per
    epoch; the weights never touch ``rng``.  A caller that needs only the
    architecture can skip the training yet leave every later draw as it was.
    """
    make_patch_dataset(train_count, patch_size, rng)
    for _epoch in range(epochs):
        rng.permutation(train_count)


def train_cnn_detector(
    patch_size: int = 32,
    train_count: int = 160,
    epochs: int = 6,
    channels: int = 16,
    rng: np.random.Generator | None = None,
) -> CnnDetector:
    """Train the patch classifier on synthetic vehicle/background patches."""
    rng = rng or np.random.default_rng(0)
    x, y = make_patch_dataset(train_count, patch_size, rng)
    detector = untrained_cnn_detector(patch_size, channels)
    train_classifier(
        detector.network, x, y, epochs=epochs, batch_size=16, optimizer=SGD(lr=0.05), rng=rng
    )
    return detector
