"""ADAS: lane-departure and forward-vehicle alerts (paper SII-B).

Runs the vision substrate's real detectors on road scenes and turns their
raw output into driver alerts; exposes itself as a polymorphic service so
Elastic Management can move the heavy CNN stage off board.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..edgeos.service import Pipeline, PolymorphicService
from ..topology.nodes import Tier
from ..vcu.profiles import QoSClass
from ..workloads.services import ADAS_TASKS, adas_frame_graph

if TYPE_CHECKING:
    from ..vision.cnn_detect import CnnDetector
    from ..vision.haar import Detection, HaarDetector

__all__ = ["AdasAlert", "AdasFrameReport", "AdasService", "make_adas_service"]


@dataclass(frozen=True)
class AdasAlert:
    """One alert raised for the driver."""

    kind: str  # "lane_departure" | "forward_vehicle"
    detail: str


@dataclass
class AdasFrameReport:
    """Everything one frame's analysis produced."""

    lanes_found: bool
    lane_offset_norm: float  # [-1, 1]: 0 = centred between markings
    detections: list[Detection] = field(default_factory=list)
    alerts: list[AdasAlert] = field(default_factory=list)
    ops: float = 0.0


class AdasService:
    """Frame analyzer built on the vision substrate."""

    def __init__(
        self,
        haar: HaarDetector,
        cnn: CnnDetector | None = None,
        lane_departure_threshold: float = 0.45,
        forward_area_threshold: float = 0.05,
    ):
        self.haar = haar
        self.cnn = cnn
        self.lane_departure_threshold = lane_departure_threshold
        self.forward_area_threshold = forward_area_threshold

    def _lane_offset(self, lines, width: int, height: int) -> float:
        """Normalized lateral offset of image centre between the two lanes."""
        if len(lines) < 2:
            return 0.0
        # x-position of each line at the bottom edge from (theta, rho):
        # rho = x cos(theta) + y sin(theta)  =>  x = (rho - y sin) / cos.
        y = float(height - 1)
        xs = []
        for theta, rho in lines[:2]:
            cos_t = math.cos(theta)
            if abs(cos_t) < 1e-6:
                return 0.0
            xs.append((rho - y * math.sin(theta)) / cos_t)
        left, right = sorted(xs)
        if right - left < 1.0:
            return 0.0
        centre = width / 2.0
        midpoint = (left + right) / 2.0
        return float(np.clip((centre - midpoint) / ((right - left) / 2.0), -1.0, 1.0))

    def analyze(self, frame: np.ndarray, detect_step: int = 4) -> AdasFrameReport:
        """Run lane + vehicle detection on one frame and raise alerts."""
        from ..vision.haar import non_max_suppression
        from ..vision.lane import detect_lanes

        height, width = frame.shape
        lane = detect_lanes(frame)
        raw_detections, haar_ops = self.haar.detect(frame, step=detect_step)
        detections = non_max_suppression(raw_detections)
        report = AdasFrameReport(
            lanes_found=lane.found_both_lanes,
            lane_offset_norm=self._lane_offset(lane.lines, width, height),
            detections=detections,
            ops=lane.ops + haar_ops,
        )
        if lane.found_both_lanes and abs(report.lane_offset_norm) > self.lane_departure_threshold:
            side = "left" if report.lane_offset_norm > 0 else "right"
            report.alerts.append(
                AdasAlert("lane_departure", f"drifting {side} of lane centre")
            )
        frame_area = width * height
        for det in detections:
            if det.size * det.size / frame_area >= self.forward_area_threshold:
                report.alerts.append(
                    AdasAlert("forward_vehicle", f"vehicle ahead ({det.size}px window)")
                )
                break
        return report


def make_adas_service(deadline_s: float = 0.25) -> PolymorphicService:
    """The ADAS perception loop as a managed polymorphic service.

    Three pipelines over the per-frame graph: all on board; the heavy CNN
    detection on the XEdge; everything except capture on the edge.
    """
    _capture, lane, detect, fuse = ADAS_TASKS

    def pipe(mapping: dict[str, str]) -> dict[str, str]:
        return {name: mapping.get(name, Tier.VEHICLE) for name in ADAS_TASKS}

    return PolymorphicService(
        name="adas-perception",
        qos=QoSClass.SAFETY_CRITICAL,
        deadline_s=deadline_s,
        graph_factory=adas_frame_graph,
        pipelines=[
            Pipeline("onboard", pipe({})),
            Pipeline("detect-on-edge", pipe({detect: Tier.EDGE})),
            Pipeline(
                "perception-on-edge",
                pipe({lane: Tier.EDGE, detect: Tier.EDGE, fuse: Tier.EDGE}),
            ),
        ],
    )
