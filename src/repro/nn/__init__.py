"""Neural-network substrate: layers, training, compression, transfer, zoo."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .compress import CompressionReport, deep_compress, kmeans_1d, measure, prune, quantize
    from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
    from .network import Sequential, cross_entropy, softmax
    from .train import SGD, TrainResult, train_classifier
    from .transfer import freeze_masks, transfer_learn
    from .zoo import (
        INCEPTION_V3,
        MOBILENET_V1,
        RESNET50,
        SPEC_REGISTRY,
        TINY_FACE,
        YOLO_V2,
        ModelSpec,
        make_mlp,
        make_tiny_cnn,
    )

__all__ = [
    "CompressionReport",
    "Conv2D",
    "Dense",
    "Flatten",
    "INCEPTION_V3",
    "Layer",
    "MOBILENET_V1",
    "MaxPool2D",
    "ModelSpec",
    "RESNET50",
    "ReLU",
    "SGD",
    "SPEC_REGISTRY",
    "Sequential",
    "TINY_FACE",
    "TrainResult",
    "YOLO_V2",
    "cross_entropy",
    "deep_compress",
    "freeze_masks",
    "kmeans_1d",
    "make_mlp",
    "make_tiny_cnn",
    "measure",
    "prune",
    "quantize",
    "softmax",
    "train_classifier",
    "transfer_learn",
]

__getattr__, __dir__ = _lazy_exports(__name__)
