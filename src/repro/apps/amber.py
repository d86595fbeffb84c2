"""AMBER-alert vehicle search: the mobile A3 third-party app (paper SII-D).

"Another example is to leverage the on-board camera to recognize and track
a targeted vehicle, which is a mobile version for A3, promising to enhance
the AMBER alert system."

The service watches a stream of camera sightings, runs the three-stage
pipeline (motion -> plate detect -> plate recognize) with per-stage costs
from the canonical amber graph, and reports when the target plate is
found.  Recognition is imperfect: each sighting carries an image-quality
score and recognition succeeds when quality clears the model's floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..edgeos.service import Pipeline, PolymorphicService
from ..topology.nodes import Tier
from ..vcu.profiles import QoSClass
from ..workloads.services import amber_search_graph

__all__ = ["PlateSighting", "SearchHit", "AmberSearchService", "make_amber_service"]


@dataclass(frozen=True)
class PlateSighting:
    """One candidate vehicle seen by the dash camera."""

    time_s: float
    position_m: float
    plate: str
    quality: float  # [0, 1] image quality (distance, blur, lighting)


@dataclass(frozen=True)
class SearchHit:
    """A confirmed match of the target plate."""

    time_s: float
    position_m: float
    plate: str


@dataclass
class AmberSearchService:
    """Plate matcher with per-sighting cost accounting.

    Recognition reads the plate iff the sighting's quality clears
    ``recognition_floor``: cheap and deterministic.
    """

    target_plate: str
    recognition_floor: float = 0.35  # below this quality the OCR fails
    hits: list[SearchHit] = field(default_factory=list)
    sightings_processed: int = 0
    gops_spent: float = 0.0

    def __post_init__(self):
        graph = amber_search_graph()
        self._stage_cost = {task.name: task.work_gop for task in graph.tasks}

    def process(self, sighting: PlateSighting) -> SearchHit | None:
        """Run the full pipeline on one sighting."""
        self.sightings_processed += 1
        # Motion detection always runs.
        self.gops_spent += self._stage_cost["motion-detect"]
        # Plate detection and recognition run on every moving candidate.
        self.gops_spent += self._stage_cost["plate-detect"]
        self.gops_spent += self._stage_cost["plate-recognize"]
        # Recognition reads the plate only from a good enough image.
        if sighting.quality < self.recognition_floor or sighting.plate != self.target_plate:
            return None
        hit = SearchHit(
            time_s=sighting.time_s, position_m=sighting.position_m, plate=sighting.plate
        )
        self.hits.append(hit)
        return hit

def generate_sightings(
    count: int,
    target_plate: str,
    rng: np.random.Generator,
    target_frequency: float = 0.05,
    duration_s: float = 600.0,
) -> list[PlateSighting]:
    """A synthetic stream of sightings with the target appearing rarely."""
    plates = [f"XYZ-{i:04d}" for i in range(200)]
    sightings = []
    for _ in range(count):
        plate = target_plate if rng.random() < target_frequency else plates[
            int(rng.integers(0, len(plates)))
        ]
        sightings.append(
            PlateSighting(
                time_s=float(rng.uniform(0, duration_s)),
                position_m=float(rng.uniform(0, 10_000)),
                plate=plate,
                quality=float(rng.beta(5, 2)),
            )
        )
    return sorted(sightings, key=lambda s: s.time_s)


def make_amber_service(deadline_s: float = 2.0) -> PolymorphicService:
    """The A3 search as a polymorphic service: the paper's three pipelines."""
    names = [t.name for t in amber_search_graph().tasks]

    def pipe(mapping: dict[str, str]) -> dict[str, str]:
        return {name: mapping.get(name, Tier.VEHICLE) for name in names}

    return PolymorphicService(
        name="amber-search",
        qos=QoSClass.LATENCY_SENSITIVE,
        deadline_s=deadline_s,
        graph_factory=amber_search_graph,
        pipelines=[
            Pipeline("onboard", pipe({})),
            Pipeline(
                "offload-all",
                pipe({name: Tier.EDGE for name in names}),
            ),
            Pipeline(
                "split",
                pipe({"plate-detect": Tier.EDGE, "plate-recognize": Tier.EDGE}),
            ),
        ],
    )
