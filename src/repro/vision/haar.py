"""Haar-cascade vehicle detection: integral images + boosted Haar features.

The "Haar-based image processing" vehicle detector of Table I.  Built from
scratch: integral images give O(1) rectangle sums; weak classifiers are
thresholded Haar features; AdaBoost picks and weights them; detection runs
a sliding window over an image pyramid.  The detector counts its own
arithmetic so Table I's latency comes from mechanics, not constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "integral_image",
    "rect_sum",
    "HaarFeature",
    "WeakClassifier",
    "HaarDetector",
    "train_haar_detector",
    "Detection",
    "non_max_suppression",
]

#: Arithmetic cost of evaluating one feature on one window (integral-image
#: corner lookups, rectangle sums, compare, weighted accumulate).
OPS_PER_RECT = 7  # 4 lookups + 3 adds
OPS_FEATURE_OVERHEAD = 4  # normalize, compare, weight, accumulate


def integral_image(img: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top row/left column."""
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    ii[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
    return ii


def rect_sum(ii: np.ndarray, x, y, w, h):
    """Sum of pixels in [y, y+h) x [x, x+w); broadcasts over arrays, and for
    scalar x, y over a trailing sample axis of ``ii``, shape (H+1, W+1, n)."""
    return ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]


@dataclass(frozen=True)
class HaarFeature:
    """A two- or three-rectangle Haar feature in unit window coordinates.

    ``kind`` is 'two_h' (left/right halves), 'two_v' (top/bottom) or
    'three_h' (side-centre-side); (fx, fy, fw, fh) is the feature's support
    inside the unit window.
    """

    kind: str
    fx: float
    fy: float
    fw: float
    fh: float

    def __post_init__(self):
        if self.kind not in ("two_h", "two_v", "three_h"):
            raise ValueError(f"unknown feature kind {self.kind!r}")

    @property
    def rect_count(self) -> int:
        return 3 if self.kind == "three_h" else 2

    def evaluate(self, ii: np.ndarray, x, y, size: int):
        """Feature response for window(s) at (x, y) of side ``size``.

        x, y may be arrays (vectorized over windows), or with scalar x, y
        ``ii`` may stack integral images on a trailing axis (one response per
        sample).  Response is normalized by the window area so it is
        scale-invariant.
        """
        px = (x + self.fx * size).astype(int) if hasattr(x, "astype") else int(x + self.fx * size)
        py = (y + self.fy * size).astype(int) if hasattr(y, "astype") else int(y + self.fy * size)
        fw = max(2, int(self.fw * size))
        fh = max(2, int(self.fh * size))
        if self.kind == "two_h":
            half = fw // 2
            left = rect_sum(ii, px, py, half, fh)
            right = rect_sum(ii, px + half, py, half, fh)
            value = right - left
        elif self.kind == "two_v":
            half = fh // 2
            top = rect_sum(ii, px, py, fw, half)
            bottom = rect_sum(ii, px, py + half, fw, half)
            value = bottom - top
        else:  # three_h
            third = fw // 3
            a = rect_sum(ii, px, py, third, fh)
            b = rect_sum(ii, px + third, py, third, fh)
            c = rect_sum(ii, px + 2 * third, py, third, fh)
            value = b - a - c
        return value / (size * size)


@dataclass
class WeakClassifier:
    """Thresholded Haar feature with polarity and AdaBoost weight."""

    feature: HaarFeature
    threshold: float
    polarity: int  # +1: positive if value > threshold; -1: reversed
    alpha: float = 1.0

    def predict(self, ii: np.ndarray, x, y, size: int):
        value = self.feature.evaluate(ii, x, y, size)
        raw = value > self.threshold
        return raw if self.polarity > 0 else ~raw if isinstance(raw, np.ndarray) else not raw


@dataclass(frozen=True)
class Detection:
    """One detected object window."""

    x: int
    y: int
    size: int
    score: float

    def iou(self, other: "Detection") -> float:
        """Intersection-over-union with another square detection."""
        x0 = max(self.x, other.x)
        y0 = max(self.y, other.y)
        x1 = min(self.x + self.size, other.x + other.size)
        y1 = min(self.y + self.size, other.y + other.size)
        inter = max(0, x1 - x0) * max(0, y1 - y0)
        union = self.size**2 + other.size**2 - inter
        return inter / union if union else 0.0


def non_max_suppression(
    detections: list[Detection], iou_threshold: float = 0.3
) -> list[Detection]:
    """Greedy NMS: keep the highest-scoring window, drop overlapping ones.

    Sliding-window detectors fire many times around each object; NMS
    collapses the cluster to one box per object (score order preserved).
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    remaining = sorted(detections, key=lambda d: d.score, reverse=True)
    kept: list[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if best.iou(d) < iou_threshold]
    return kept


@dataclass
class HaarDetector:
    """A boosted ensemble over Haar features, plus the sliding-window driver."""

    classifiers: list[WeakClassifier]
    window: int = 24
    threshold_fraction: float = 0.5  # fraction of total alpha needed to accept

    def score_windows(self, ii: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
        """Ensemble score for each window (vectorized)."""
        total = np.zeros(len(xs))
        for clf in self.classifiers:
            votes = clf.predict(ii, xs, ys, size)
            total += clf.alpha * votes
        return total

    def classify_patch(self, patch: np.ndarray) -> bool:
        """Binary decision for one window-sized patch."""
        ii = integral_image(patch)
        score = self.score_windows(ii, np.array([0]), np.array([0]), patch.shape[0])[0]
        return score >= self.threshold_fraction * sum(c.alpha for c in self.classifiers)

    def detect(
        self,
        img: np.ndarray,
        scale_factor: float = 1.25,
        step: int = 1,
        max_scale: float | None = None,
    ) -> tuple[list[Detection], int]:
        """Sliding-window multi-scale detection; returns (detections, ops).

        ``ops`` is the arithmetic cost of the full scan -- the quantity the
        Table I benchmark divides by processor throughput.
        """
        ii = integral_image(img)
        h, w = img.shape
        limit = min(h, w) if max_scale is None else int(self.window * max_scale)
        alpha_total = sum(c.alpha for c in self.classifiers)
        accept = self.threshold_fraction * alpha_total

        detections: list[Detection] = []
        ops = 0
        size = self.window
        while size <= limit:
            xs0 = np.arange(0, w - size, step)
            ys0 = np.arange(0, h - size, step)
            if len(xs0) == 0 or len(ys0) == 0:
                break
            gx, gy = np.meshgrid(xs0, ys0)
            xs, ys = gx.ravel(), gy.ravel()
            scores = self.score_windows(ii, xs, ys, size)
            feature_ops = sum(
                clf.feature.rect_count * OPS_PER_RECT + OPS_FEATURE_OVERHEAD
                for clf in self.classifiers
            )
            ops += len(xs) * feature_ops
            hits = scores >= accept
            for x, y, s in zip(xs[hits], ys[hits], scores[hits]):
                detections.append(Detection(int(x), int(y), size, float(s)))
            size = int(round(size * scale_factor))
        return detections, ops

    def scan_ops(self, width: int, height: int, scale_factor: float = 1.25, step: int = 1) -> int:
        """Analytic op count of a full scan without executing it."""
        feature_ops = sum(
            clf.feature.rect_count * OPS_PER_RECT + OPS_FEATURE_OVERHEAD
            for clf in self.classifiers
        )
        ops = 0
        size = self.window
        while size <= min(width, height):
            nx = max(0, (width - size + step - 1) // step)
            ny = max(0, (height - size + step - 1) // step)
            ops += nx * ny * feature_ops
            size = int(round(size * scale_factor))
        return ops


def _candidate_features(rng: np.random.Generator, count: int) -> list[HaarFeature]:
    kinds = ("two_h", "two_v", "three_h")
    features = []
    for _ in range(count):
        kind = kinds[rng.integers(0, 3)]
        fw = rng.uniform(0.3, 0.9)
        fh = rng.uniform(0.2, 0.6)
        fx = rng.uniform(0.0, 1.0 - fw)
        fy = rng.uniform(0.0, 1.0 - fh)
        features.append(HaarFeature(kind, fx, fy, fw, fh))
    return features


def train_haar_detector(
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    rounds: int = 15,
    candidates: int = 120,
    window: int = 24,
    rng: np.random.Generator | None = None,
) -> HaarDetector:
    """AdaBoost over random Haar features on window-sized patches."""
    if not positives or not negatives:
        raise ValueError("need both positive and negative examples")
    if rounds < 1 or candidates < 1:
        raise ValueError(f"rounds and candidates must be >= 1, got {rounds} and {candidates}")
    patches = positives + negatives
    for p in patches:
        if np.shape(p) != (window, window):
            raise ValueError(f"window={window} needs {window}x{window} patches, got {np.shape(p)}")
    rng = rng or np.random.default_rng(0)
    labels = np.array([1] * len(positives) + [0] * len(negatives))
    n = len(patches)
    features = _candidate_features(rng, candidates)

    # Responses (n_features, n_samples), from integral images stacked with
    # the sample axis last.  They never change, so each row is sorted once.
    stack = np.stack([integral_image(p) for p in patches], axis=-1)
    responses = np.array([feature.evaluate(stack, 0, 0, window) for feature in features])
    orders = np.argsort(responses, axis=1)
    positive = labels[orders] == 1

    weights = np.full(n, 1.0 / n)
    chosen: list[WeakClassifier] = []
    for _round in range(rounds):
        weights = weights / weights.sum()
        sorted_weights = weights[orders]
        # Cumulative weighted positives/negatives below each split.
        cum_pos, cum_neg = (np.pad(np.cumsum(sorted_weights * mask, axis=1), ((0, 0), (1, 0)))
                            for mask in (positive, ~positive))
        # errors[:, 0]: polarity +1 (predict positive above split), error =
        # positives below + negatives above; errors[:, 1]: polarity -1.
        errors = np.stack([cum_pos[:, :-1] + (cum_neg[:, -1:] - cum_neg[:, :-1]),
                           cum_neg[:, :-1] + (cum_pos[:, -1:] - cum_pos[:, :-1])], axis=1)
        # The first minimum in row-major order: features, then polarity +1, -1.
        best = errors.min(axis=2)
        fi, pi = divmod(int(best.argmin()), 2)
        err = float(best[fi, pi])
        threshold = float(responses[fi, orders[fi, errors[fi, pi].argmin()]] - 1e-9)
        polarity = -1 if pi else 1
        err = min(max(err, 1e-9), 0.4999)
        alpha = 0.5 * np.log((1.0 - err) / err)
        clf = WeakClassifier(features[fi], threshold, polarity, alpha=float(alpha))
        chosen.append(clf)
        # Reweight: increase weight of misclassified samples.
        predictions = (
            (responses[fi] > threshold) if polarity > 0 else (responses[fi] <= threshold)
        ).astype(int)
        mistakes = predictions != labels
        weights *= np.exp(alpha * np.where(mistakes, 1.0, -1.0))

    return HaarDetector(classifiers=chosen, window=window)
