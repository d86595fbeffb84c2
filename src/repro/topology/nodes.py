"""Node types of the two-tier OpenVDAP architecture (paper Figure 4).

Three tiers of compute location:

* :class:`Vehicle` -- carries the VCU (its processors), the DDI and the
  applications; moves along the road.
* :class:`XEdge` -- an edge server hosted on a base station, RSU or traffic
  signal system, one DSRC/5G hop from the vehicle.
* :class:`Cloud` -- the remote datacenter behind the cellular + backhaul
  path.

Nodes are containers: they own processors and links; behaviour (scheduling,
offloading) lives in `repro.vcu` and `repro.offload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hw.processor import ProcessorModel
from ..net.channel import LinkModel

__all__ = ["Node", "Vehicle", "XEdge", "Cloud", "Tier", "LinkTable"]


class Tier:
    """Placement tier names used throughout the offloading engine."""

    VEHICLE = "vehicle"
    EDGE = "edge"
    CLOUD = "cloud"
    ALL = (VEHICLE, EDGE, CLOUD)


@dataclass
class Node:
    """A compute location with a set of processors.

    The processors are fixed when the node is built (a tuple), so caches
    of per-node derivations (e.g. compiled placements) hold for the
    node's lifetime.  A device that dies or leaves at run time does so in
    the layers that model it -- the health view, the fault injector and
    the mHEP's membership -- not here.
    """

    name: str
    tier: str
    processors: tuple[ProcessorModel, ...] = ()

    def __post_init__(self):
        if self.tier not in Tier.ALL:
            raise ValueError(f"unknown tier {self.tier!r}")
        self.processors = tuple(self.processors)

    def best_processor_for(self, workload) -> Optional[ProcessorModel]:
        """Fastest device for a workload class, or None if unsupported."""
        candidates = [p for p in self.processors if p.supports(workload)]
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.effective_gops(workload))


@dataclass
class Vehicle(Node):
    """A CAV: mobile node carrying the on-board platform."""

    mobility: object = None  # ConstantSpeed / SpeedProfile

    def __init__(self, name: str, processors=None, mobility=None):
        super().__init__(name=name, tier=Tier.VEHICLE, processors=processors or ())
        self.mobility = mobility

    def position(self, time_s: float) -> float:
        if self.mobility is None:
            return 0.0
        return self.mobility.position(time_s)

    def speed(self, time_s: float) -> float:
        if self.mobility is None:
            return 0.0
        return self.mobility.speed(time_s)


@dataclass
class XEdge(Node):
    """Edge server on a RSU / base station / traffic signal system."""

    position_m: float = 0.0
    coverage_radius_m: float = 300.0

    def __init__(self, name: str, processors=None, position_m=0.0, coverage_radius_m=300.0):
        super().__init__(name=name, tier=Tier.EDGE, processors=processors or ())
        self.position_m = position_m
        self.coverage_radius_m = coverage_radius_m

    def covers(self, position_m: float) -> bool:
        return abs(position_m - self.position_m) <= self.coverage_radius_m


@dataclass
class Cloud(Node):
    """Remote cloud: conceptually unconstrained resources, far away."""

    def __init__(self, name: str = "cloud", processors=None):
        super().__init__(name=name, tier=Tier.CLOUD, processors=processors or ())


@dataclass
class LinkTable:
    """Links between tiers, as the offloading cost model sees them."""

    vehicle_edge: LinkModel
    vehicle_cloud: LinkModel
    edge_cloud: LinkModel
    vehicle_vehicle: Optional[LinkModel] = None

    def between(self, a: str, b: str) -> LinkModel:
        pair = frozenset((a, b))
        if pair == frozenset((Tier.VEHICLE, Tier.EDGE)):
            return self.vehicle_edge
        if pair == frozenset((Tier.VEHICLE, Tier.CLOUD)):
            return self.vehicle_cloud
        if pair == frozenset((Tier.EDGE, Tier.CLOUD)):
            return self.edge_cloud
        if pair == frozenset((Tier.VEHICLE,)) and self.vehicle_vehicle is not None:
            return self.vehicle_vehicle
        raise KeyError(f"no link between {a} and {b}")
