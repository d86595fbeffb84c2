"""Table I harness: latency of driving algorithms on the 2.4 GHz vCPU.

Ties the three detectors' mechanistic operation counts to a processor
model.  The paper ran Lane Detection (computer vision), Vehicle Detection
(Haar) and Vehicle Detection (TensorFlow CNN) on an AWS EC2 2.4 GHz vCPU
and reported 13.57 ms / 269.46 ms / 13 971.98 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.catalog import aws_vcpu_2_4ghz
from ..hw.processor import ProcessorModel, WorkloadClass
from .cnn_detect import (
    CnnDetector,
    replay_cnn_training_draws,
    train_cnn_detector,
    untrained_cnn_detector,
)
from .haar import HaarDetector, train_haar_detector
from .image import background_patch, road_scene, vehicle_patch
from .lane import detect_lanes

__all__ = ["AlgorithmLatency", "table1_rows", "default_detectors"]

FRAME_WIDTH = 640
FRAME_HEIGHT = 480

# The Table I CNN's shape and training, read both where it is trained
# (default_detectors) and where its training draws are replayed (table1_rows).
CNN_PATCH_SIZE = 32
CNN_CHANNELS = 20
CNN_TRAIN_COUNT = 160
CNN_EPOCHS = 6


@dataclass(frozen=True)
class AlgorithmLatency:
    """One Table I row: algorithm name, op count, modelled latency."""

    name: str
    ops: float
    workload: WorkloadClass
    latency_ms: float


def _train_haar(rng: np.random.Generator) -> HaarDetector:
    positives = [vehicle_patch(24, rng) for _ in range(60)]
    negatives = [background_patch(24, rng) for _ in range(60)]
    return train_haar_detector(positives, negatives, rounds=15, rng=rng)


def default_detectors(rng: np.random.Generator | None = None) -> tuple[HaarDetector, CnnDetector]:
    """Train the detector pair of the Table I benchmark.

    :func:`table1_rows` does not call this: a detector's Table I op count
    depends only on its architecture, and training the CNN would cost
    seconds for weights the table never reads.  It builds the CNN
    untrained and replays the CNN's training draws instead, so it leaves
    ``rng`` where this function does and its scene is drawn unchanged.
    """
    rng = rng or np.random.default_rng(0)
    haar = _train_haar(rng)
    cnn = train_cnn_detector(
        patch_size=CNN_PATCH_SIZE,
        train_count=CNN_TRAIN_COUNT,
        epochs=CNN_EPOCHS,
        channels=CNN_CHANNELS,
        rng=rng,
    )
    return haar, cnn


def table1_rows(
    processor: ProcessorModel | None = None,
    haar: HaarDetector | None = None,
    cnn: CnnDetector | None = None,
    rng: np.random.Generator | None = None,
) -> list[AlgorithmLatency]:
    """The three Table I rows on the given processor (default: AWS vCPU).

    Lane-detection ops come from actually running the pipeline on a
    generated scene; the sliding-window detectors use their analytic scan
    counts for the full 640x480 frame.

    A missing detector is made as :func:`default_detectors` makes it,
    except that the CNN is left untrained: ``scan_flops`` reads only the
    architecture, which training does not change.  The CNN's training
    draws are still replayed, and the Haar cascade is still trained, even
    if only one detector is missing, so the scene is drawn from the same
    generator state as when both detectors were trained here.
    """
    processor = processor or aws_vcpu_2_4ghz()
    rng = rng or np.random.default_rng(0)
    if haar is None or cnn is None:
        trained_haar = _train_haar(rng)
        replay_cnn_training_draws(
            rng, patch_size=CNN_PATCH_SIZE, train_count=CNN_TRAIN_COUNT, epochs=CNN_EPOCHS
        )
        if haar is None:
            haar = trained_haar
        if cnn is None:
            cnn = untrained_cnn_detector(CNN_PATCH_SIZE, CNN_CHANNELS)

    scene, _truth = road_scene(FRAME_WIDTH, FRAME_HEIGHT, rng=rng, vehicle_count=1)
    lane = detect_lanes(scene)

    rows = []
    for name, ops, workload in (
        ("Lane Detection", lane.ops, WorkloadClass.VISION),
        ("Vehicle Detection (Haar)", haar.scan_ops(FRAME_WIDTH, FRAME_HEIGHT), WorkloadClass.VISION),
        ("Vehicle Detection (CNN)", cnn.scan_flops(FRAME_WIDTH, FRAME_HEIGHT), WorkloadClass.DNN),
    ):
        latency = processor.execution_time(ops / 1e9, workload)
        rows.append(
            AlgorithmLatency(
                name=name, ops=float(ops), workload=workload, latency_ms=latency * 1e3
            )
        )
    return rows
