"""Vision substrate: synthetic scenes, lane/vehicle detectors, Table I harness."""

from .cnn_detect import (
    CnnDetector,
    make_patch_dataset,
    replay_cnn_training_draws,
    train_cnn_detector,
    untrained_cnn_detector,
)
from .evaluate import DetectionMetrics, box_iou, evaluate_detector
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
from .ocr import FONT, plate_quality_to_noise, read_plate, render_plate
from .table1 import AlgorithmLatency, default_detectors, table1_rows

__all__ = [
    "AlgorithmLatency",
    "CnnDetector",
    "Detection",
    "DetectionMetrics",
    "box_iou",
    "evaluate_detector",
    "HaarDetector",
    "HaarFeature",
    "LaneResult",
    "SceneTruth",
    "WeakClassifier",
    "background_patch",
    "default_detectors",
    "FONT",
    "detect_lanes",
    "plate_quality_to_noise",
    "read_plate",
    "replay_cnn_training_draws",
    "render_plate",
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
