"""The vectorized AdaBoost trainer against a per-feature loop reference.

``train_haar_detector`` evaluates every feature on a stack of integral
images, sorts each feature once and sweeps all features per round.  The
arithmetic is the same as scanning the features one at a time, so the
cascades must be equal, not merely close.
"""

import numpy as np
import pytest

from repro.vision import background_patch, integral_image, train_haar_detector, vehicle_patch
from repro.vision.haar import WeakClassifier, _candidate_features


def _reference_cascade(positives, negatives, rounds, candidates, window, rng):
    """One feature at a time: scalar responses, a sort and a scan per round."""
    patches = positives + negatives
    labels = np.array([1] * len(positives) + [0] * len(negatives))
    n = len(patches)
    features = _candidate_features(rng, candidates)
    iis = [integral_image(p) for p in patches]
    responses = np.array([[f.evaluate(ii, 0, 0, window) for ii in iis] for f in features])
    weights = np.full(n, 1.0 / n)
    chosen = []
    for _round in range(rounds):
        weights = weights / weights.sum()
        best = None  # (error, fi, threshold, polarity)
        for fi, values in enumerate(responses):
            order = np.argsort(values)
            sorted_weights = weights[order]
            cum_pos = np.concatenate([[0.0], np.cumsum(sorted_weights * (labels[order] == 1))])
            cum_neg = np.concatenate([[0.0], np.cumsum(sorted_weights * (labels[order] == 0))])
            err_plus = cum_pos[:-1] + (cum_neg[-1] - cum_neg[:-1])
            err_minus = cum_neg[:-1] + (cum_pos[-1] - cum_pos[:-1])
            for errors, polarity in ((err_plus, 1), (err_minus, -1)):
                idx = int(errors.argmin())
                if best is None or errors[idx] < best[0]:
                    best = (float(errors[idx]), fi, float(values[order][idx] - 1e-9), polarity)
        err, fi, threshold, polarity = best
        err = min(max(err, 1e-9), 0.4999)
        alpha = 0.5 * np.log((1.0 - err) / err)
        chosen.append(WeakClassifier(features[fi], threshold, polarity, alpha=float(alpha)))
        above = responses[fi] > threshold
        mistakes = (above if polarity > 0 else ~above).astype(int) != labels
        weights *= np.exp(alpha * np.where(mistakes, 1.0, -1.0))
    return chosen


@pytest.mark.parametrize(
    "seed, count, rounds, candidates, window, ties",
    [
        (1, 60, 15, 120, 24, False),
        (2, 30, 5, 120, 24, False),
        (3, 12, 20, 40, 16, True),
        (4, 5, 6, 9, 32, True),
    ],
)
def test_vectorized_training_equals_the_loop_reference(
    seed, count, rounds, candidates, window, ties
):
    rng = np.random.default_rng(seed)
    positives = [vehicle_patch(window, rng) for _ in range(count)]
    negatives = [background_patch(window, rng) for _ in range(count)]
    if ties:  # the same patches under both labels: tie order moves the cumulative sums
        positives, negatives = positives + negatives[:4], negatives + positives[:4]
    trained = train_haar_detector(
        positives, negatives, rounds=rounds, candidates=candidates, window=window,
        rng=np.random.default_rng(seed + 100),
    )
    reference = _reference_cascade(
        positives, negatives, rounds, candidates, window, np.random.default_rng(seed + 100)
    )
    assert trained.classifiers == reference
    assert trained.window == window
