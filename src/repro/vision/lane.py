"""Lane detection: Sobel gradients + Hough transform.

This is the "computer vision technology" lane detector of Table I.  The
pipeline is the classic one: gradient magnitude -> edge threshold -> Hough
vote over (rho, theta) -> pick the strongest left- and right-leaning lines
below the horizon.  The detector reports its own arithmetic-operation count
so Table I latencies are mechanistic (ops / sustained-throughput), not
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LaneResult", "detect_lanes", "sobel_edges", "hough_lines", "gaussian_blur"]


def gaussian_blur(img: np.ndarray, kernel: int = 5) -> tuple[np.ndarray, int]:
    """Separable Gaussian smoothing; returns (blurred, op count)."""
    if kernel % 2 == 0 or kernel < 3:
        raise ValueError("kernel must be odd and >= 3")
    sigma = kernel / 3.0
    offsets = np.arange(kernel) - kernel // 2
    taps = np.exp(-(offsets**2) / (2 * sigma**2))
    taps /= taps.sum()
    pad = kernel // 2
    # Horizontal then vertical pass (separable).
    padded = np.pad(img, ((0, 0), (pad, pad)), mode="edge")
    horizontal = sum(
        taps[i] * padded[:, i : i + img.shape[1]] for i in range(kernel)
    )
    padded = np.pad(horizontal, ((pad, pad), (0, 0)), mode="edge")
    blurred = sum(taps[i] * padded[i : i + img.shape[0], :] for i in range(kernel))
    # Ops: two passes of (kernel mults + kernel-1 adds) per pixel.
    ops = img.size * 2 * (2 * kernel - 1)
    return blurred, ops


@dataclass
class LaneResult:
    """Detected lane lines and the operation count of the run."""

    lines: list[tuple[float, float]]  # (theta_rad, rho_px) of detected lines
    ops: int
    edge_count: int

    @property
    def found_both_lanes(self) -> bool:
        return len(self.lines) >= 2


def sobel_edges(img: np.ndarray, threshold: float = 0.25) -> tuple[np.ndarray, int]:
    """Edge map via Sobel gradient magnitude; returns (edges, op count)."""
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    h, w = img.shape
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    # 3x3 Sobel via shifted slices (9 taps per kernel).
    p = np.pad(img, 1, mode="edge")
    gx = (
        -p[:-2, :-2] - 2 * p[1:-1, :-2] - p[2:, :-2]
        + p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:]
    )
    gy = (
        -p[:-2, :-2] - 2 * p[:-2, 1:-1] - p[:-2, 2:]
        + p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:]
    )
    magnitude = np.abs(gx) + np.abs(gy)
    edges = magnitude > threshold * magnitude.max()
    # Ops: two 9-tap kernels (17 ops each incl. adds) + magnitude (3) +
    # threshold compare (1) per pixel.
    ops = h * w * (2 * 17 + 3 + 1)
    return edges, ops


def hough_lines(
    edges: np.ndarray,
    theta_bins: int = 360,
    rho_resolution: float = 2.0,
    top_k: int = 2,
    min_votes: int = 30,
) -> tuple[list[tuple[float, float]], int]:
    """Classic Hough transform; returns ((theta, rho) lines, op count).

    Lines are selected as vote maxima split by the sign of their slope so
    the detector returns one left and one right lane boundary.
    """
    ys, xs = np.nonzero(edges)
    edge_count = len(xs)
    thetas = np.linspace(-np.pi / 2, np.pi / 2, theta_bins, endpoint=False)
    diag = float(np.hypot(*edges.shape))
    rho_bins = int(2 * diag / rho_resolution) + 1
    accumulator = np.zeros((theta_bins, rho_bins), dtype=np.int64)

    if edge_count:
        cos_t, sin_t = np.cos(thetas), np.sin(thetas)
        # rho = x cos(theta) + y sin(theta), one theta at a time: an
        # (edges x thetas) table would make memory grow with the scene.
        for t in range(theta_bins):
            rho_idx = ((xs * cos_t[t] + ys * sin_t[t] + diag) / rho_resolution).astype(int)
            accumulator[t] = np.bincount(rho_idx, minlength=rho_bins)

    # Ops: per edge per theta -- 2 multiplies + 1 add + 1 quantize + 1 vote.
    ops = edge_count * theta_bins * 5

    # Exclude near-horizontal lines (theta near +-pi/2): lane markings are
    # steep in image space.
    lines: list[tuple[float, float]] = []
    steep = np.abs(thetas) < np.deg2rad(75)
    leaning_left = thetas < 0
    for side_mask in (steep & leaning_left, steep & ~leaning_left):
        masked = accumulator[side_mask]
        if masked.size == 0 or masked.max() < min_votes:
            continue
        t_local, r_idx = np.unravel_index(masked.argmax(), masked.shape)
        theta = thetas[np.nonzero(side_mask)[0][t_local]]
        rho = r_idx * rho_resolution - diag
        lines.append((float(theta), float(rho)))
    return lines[:top_k], ops


def detect_lanes(img: np.ndarray, horizon_fraction: float = 0.34) -> LaneResult:
    """Full lane-detection pipeline on a grayscale road scene."""
    if not 0.0 <= horizon_fraction < 1.0:
        raise ValueError("horizon fraction must be in [0, 1)")
    h = img.shape[0]
    roi = img[int(h * horizon_fraction) :]  # ignore the sky
    blurred, blur_ops = gaussian_blur(roi)
    edges, sobel_ops = sobel_edges(blurred)
    lines, hough_ops = hough_lines(edges)
    return LaneResult(
        lines=lines,
        ops=blur_ops + sobel_ops + hough_ops,
        edge_count=int(edges.sum()),
    )
