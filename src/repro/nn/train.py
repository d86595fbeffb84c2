"""Training loop: SGD with momentum, minibatches, optional parameter masks.

Masks are how compression-aware retraining works (Deep Compression prunes
weights, then fine-tunes with the pruned positions pinned at zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Sequential, cross_entropy, softmax

__all__ = ["SGD", "TrainResult", "train_classifier"]


class SGD:
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(
        self,
        network: Sequential,
        masks: dict[int, np.ndarray] | None = None,
        frozen: set[int] | None = None,
    ) -> None:
        """Apply one update from the gradients currently stored in layers.

        ``masks`` maps ``id(param_array)`` to a 0/1 array; masked-out
        positions receive no update and are re-zeroed (pruning support).
        ``frozen`` is a set of ``id(param_array)`` that receive no update at
        all (transfer-learning support).
        """
        for layer, name, param in network.parameters():
            if frozen and id(param) in frozen:
                continue
            grad = layer.grads[name]
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            key = id(param)
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = np.zeros_like(param)
            velocity = self.momentum * velocity - self.lr * grad
            self._velocity[key] = velocity
            param += velocity
            if masks and key in masks:
                param *= masks[key]


@dataclass
class TrainResult:
    """Loss/accuracy trajectory of one training run."""

    losses: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0
    epochs: int = 0


def train_classifier(
    network: Sequential,
    x: np.ndarray,
    labels: np.ndarray,
    epochs: int = 10,
    batch_size: int = 32,
    optimizer: SGD | None = None,
    rng: np.random.Generator | None = None,
    masks: dict[int, np.ndarray] | None = None,
    frozen: set[int] | None = None,
) -> TrainResult:
    """Minibatch cross-entropy training of a softmax classifier."""
    if len(x) != len(labels):
        raise ValueError("inputs and labels must align")
    if len(x) == 0:
        raise ValueError("empty training set")
    optimizer = optimizer or SGD()
    rng = rng or np.random.default_rng(0)
    result = TrainResult()

    for _epoch in range(epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], labels[idx]
            logits = network.forward(xb, training=True)
            probs = softmax(logits)
            epoch_loss += cross_entropy(probs, yb)
            batches += 1
            # d(cross-entropy softmax)/d(logits) = (p - onehot) / N
            grad = probs.copy()
            grad[np.arange(len(yb)), yb] -= 1.0
            grad /= len(yb)
            network.backward(grad)
            optimizer.step(network, masks=masks, frozen=frozen)
        result.losses.append(epoch_loss / batches)
        result.epochs += 1

    result.train_accuracy = network.accuracy(x, labels)
    return result
