"""V2V collaboration: shared results avoid repeated computation (SIII-C).

"Though the collaboration of vehicles can save computing power by avoiding
executing unnecessary repeating operations, a collaboration mechanism does
not exist in the literature" -- this module is that mechanism: vehicles in
a platoon publish recognized plates (under rotating pseudonyms) to one
:class:`~repro.edgeos.sharing.DataSharingBus` topic; before spending
recognition gops on a sighting, a vehicle checks whether a peer already
recognized that candidate.  The bus has no radio range: every member
reads every result, as if all were within DSRC range of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..edgeos.privacy import PseudonymManager
from ..edgeos.sharing import DataSharingBus
from ..workloads.services import amber_search_graph
from .amber import PlateSighting

__all__ = ["CollabVehicle", "Platoon", "CollabReport"]

RESULTS_TOPIC = "recognized-plates"


@dataclass
class CollabReport:
    """Aggregate accounting of a platoon run."""

    sightings: int = 0
    recognitions_executed: int = 0
    recognitions_reused: int = 0
    gops_spent: float = 0.0
    gops_saved: float = 0.0

    @property
    def reuse_rate(self) -> float:
        total = self.recognitions_executed + self.recognitions_reused
        return self.recognitions_reused / total if total else 0.0


class CollabVehicle:
    """One platoon member: recognizes plates, shares and reuses results."""

    def __init__(
        self,
        vehicle_id: str,
        bus: DataSharingBus,
        pseudonyms: PseudonymManager,
        collaborate: bool = True,
    ):
        self.vehicle_id = vehicle_id
        self.bus = bus
        self.pseudonyms = pseudonyms
        self.collaborate = collaborate
        self.token = bus.register_service(vehicle_id)
        bus.grant(RESULTS_TOPIC, vehicle_id, read=True, write=True)
        graph = amber_search_graph()
        self._recognition_gops = sum(
            task.work_gop
            for task in graph.tasks
            if task.name in ("plate-detect", "plate-recognize")
        )
        self._motion_gops = graph.task("motion-detect").work_gop
        self._seen_keys: set[str] = set()

    @staticmethod
    def _candidate_key(sighting: PlateSighting) -> str:
        """Identity of a candidate vehicle observation for dedup purposes.

        Peers near each other see the same physical candidate: key by
        coarse position cell and plate identity (in reality: a visual
        descriptor of the candidate, which peers compute identically).
        """
        cell = int(sighting.position_m // 50.0)
        return f"{cell}:{sighting.plate}"

    def process(self, sighting: PlateSighting, report: CollabReport) -> str | None:
        """Handle one sighting; returns the recognized plate (or None)."""
        report.sightings += 1
        report.gops_spent += self._motion_gops
        key = self._candidate_key(sighting)

        if self.collaborate:
            shared = {
                rec.payload["key"]: rec.payload["plate"]
                for rec in self.bus.read(self.vehicle_id, self.token, RESULTS_TOPIC)
            }
            if key in shared:
                report.recognitions_reused += 1
                report.gops_saved += self._recognition_gops
                return shared[key]

        # No shared result: pay for recognition ourselves.
        report.recognitions_executed += 1
        report.gops_spent += self._recognition_gops
        if sighting.quality < 0.35:
            return None
        if self.collaborate:
            self.bus.publish(
                self.vehicle_id,
                self.token,
                RESULTS_TOPIC,
                {
                    "key": key,
                    "plate": sighting.plate,
                    "reporter": self.pseudonyms.pseudonym(sighting.time_s),
                },
            )
        return sighting.plate


class Platoon:
    """A set of collaborating vehicles sharing one result topic."""

    def __init__(self, size: int, collaborate: bool = True, secret: bytes = b"platoon"):
        if size < 1:
            raise ValueError("platoon needs at least one vehicle")
        self.bus = DataSharingBus()
        self.bus.create_topic(RESULTS_TOPIC, readers=[], writers=[])
        self.vehicles = [
            CollabVehicle(
                vehicle_id=f"cav-{i}",
                bus=self.bus,
                pseudonyms=PseudonymManager(f"cav-{i}", secret),
                collaborate=collaborate,
            )
            for i in range(size)
        ]

    def run(self, sightings_per_vehicle: list[list[PlateSighting]]) -> CollabReport:
        """Process interleaved sightings across the platoon (time order)."""
        if len(sightings_per_vehicle) != len(self.vehicles):
            raise ValueError("need one sighting list per vehicle")
        report = CollabReport()
        tagged = [
            (s.time_s, i, s)
            for i, sightings in enumerate(sightings_per_vehicle)
            for s in sightings
        ]
        for _t, i, sighting in sorted(tagged, key=lambda item: (item[0], item[1])):
            self.vehicles[i].process(sighting, report)
        return report
