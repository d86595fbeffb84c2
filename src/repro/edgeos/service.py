"""Polymorphic services: one service, multiple execution pipelines.

Paper SIV-C: "each service offers multiple execution pipelines in response
to various network and computational constraints" -- e.g. the kidnapper
search (mobile A3) runs (1) fully on board, (2) fully on the edge/cloud,
or (3) split with motion detection on board and recognition remote.

A :class:`Pipeline` is a fixed tier assignment over the service's task
graph; :class:`PolymorphicService` carries the graph factory, its QoS
metadata and the pipeline list, plus the lifecycle state Elastic
Management drives it through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..offload.placement import Placement
from ..offload.task import TaskGraph
from ..vcu.profiles import QoSClass

__all__ = ["Pipeline", "ServiceState", "PolymorphicService"]


@dataclass(frozen=True)
class Pipeline:
    """One execution option: a name plus a tier per task."""

    name: str
    assignment: dict[str, str]

    def placement(self) -> Placement:
        return Placement(dict(self.assignment))


class ServiceState(enum.Enum):
    """Lifecycle states Elastic Management / Security move services through."""

    RUNNING = "running"
    DEGRADED = "degraded"  # best-effort fallback pipeline, deadline not met
    HUNG = "hung"          # no pipeline meets the deadline (paper SIV-C)
    COMPROMISED = "compromised"
    REINSTALLING = "reinstalling"
    STOPPED = "stopped"


@dataclass
class PolymorphicService:
    """A managed service: graph, QoS, pipelines, and runtime state."""

    name: str
    qos: int
    deadline_s: float
    graph_factory: Callable[[], TaskGraph]
    pipelines: list[Pipeline]
    requires_tee: bool = False
    state: ServiceState = ServiceState.RUNNING
    active_pipeline: str | None = None
    hang_count: int = 0
    reinstall_count: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.qos not in QoSClass.ALL:
            raise ValueError(f"unknown QoS class {self.qos}")
        if self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if not self.pipelines:
            raise ValueError(f"service {self.name!r} needs at least one pipeline")
        names = [p.name for p in self.pipelines]
        if len(names) != len(set(names)):
            raise ValueError("pipeline names must be unique")

    def pipeline(self, name: str) -> Pipeline:
        for pipeline in self.pipelines:
            if pipeline.name == name:
                return pipeline
        raise KeyError(f"service {self.name!r} has no pipeline {name!r}")

