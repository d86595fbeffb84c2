"""Vision substrate: synthetic scenes, lane/vehicle detectors, Table I harness."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .cnn_detect import (
        CnnDetector,
        make_patch_dataset,
        replay_cnn_training_draws,
        train_cnn_detector,
        untrained_cnn_detector,
    )
    from .haar import (
        Detection,
        HaarDetector,
        HaarFeature,
        WeakClassifier,
        integral_image,
        non_max_suppression,
        rect_sum,
        train_haar_detector,
    )
    from .image import SceneTruth, background_patch, road_scene, vehicle_patch
    from .lane import LaneResult, detect_lanes, gaussian_blur, hough_lines, sobel_edges
    from .table1 import AlgorithmLatency, table1_rows

__all__ = [
    "AlgorithmLatency",
    "CnnDetector",
    "Detection",
    "HaarDetector",
    "HaarFeature",
    "LaneResult",
    "SceneTruth",
    "WeakClassifier",
    "background_patch",
    "detect_lanes",
    "replay_cnn_training_draws",
    "gaussian_blur",
    "hough_lines",
    "integral_image",
    "make_patch_dataset",
    "non_max_suppression",
    "rect_sum",
    "road_scene",
    "sobel_edges",
    "table1_rows",
    "train_cnn_detector",
    "train_haar_detector",
    "untrained_cnn_detector",
    "vehicle_patch",
]

__getattr__, __dir__ = _lazy_exports(__name__)
