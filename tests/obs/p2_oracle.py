"""Reference P-squared update, one sample at a time.

:func:`reference_add` is the textbook per-sample step of Jain &
Chlamtac's algorithm, with the markers kept in lists and the cell search
and marker nudges written as loops.  :meth:`repro.obs.P2Quantile.extend`
replays whole batches with its markers in locals; it must leave every
marker bit-identical to feeding the same samples through this oracle.
"""

from bisect import insort

from repro.obs import P2Quantile

__all__ = ["reference_add"]


def reference_add(estimator: P2Quantile, x: float) -> None:
    """Feed one sample to ``estimator`` through the per-sample update."""
    x = float(x)
    estimator.count += 1
    if estimator.count <= 5:
        insort(estimator._heights, x)
        if estimator.count == 5:
            q = estimator.q
            estimator._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            estimator._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
            estimator._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        return
    h, pos = estimator._heights, estimator._positions
    # Find the cell the sample falls into and stretch the outer markers.
    if x < h[0]:
        h[0] = x
        cell = 0
    elif x >= h[4]:
        h[4] = x
        cell = 3
    else:
        cell = 0
        while cell < 3 and x >= h[cell + 1]:
            cell += 1
    desired, increments = estimator._desired, estimator._increments
    for i in range(cell + 1, 5):
        pos[i] += 1.0
    for i in range(5):
        desired[i] += increments[i]
    # Nudge the three interior markers toward their desired positions.
    for i in (1, 2, 3):
        delta = desired[i] - pos[i]
        if (delta >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
            delta <= -1.0 and pos[i - 1] - pos[i] < -1.0
        ):
            step = 1.0 if delta >= 1.0 else -1.0
            candidate = _parabolic(h, pos, i, step)
            if h[i - 1] < candidate < h[i + 1]:
                h[i] = candidate
            else:  # parabolic estimate escaped the bracket: go linear
                j = i + int(step)
                h[i] += step * (h[j] - h[i]) / (pos[j] - pos[i])
            pos[i] += step


def _parabolic(h: list, pos: list, i: int, step: float) -> float:
    return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
        (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
        + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
    )
