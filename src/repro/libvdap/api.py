"""libvdap: the uniform API third-party developers program against.

Paper SIV-E / Figure 8: "libvdap provides a uniform RESTful API.  By
calling the API, developers can access all software and hardware
resources ... grouped into four categories: Personalized Driving Behavior
Model (pBEAM), Common model library, VCU system resources library, and
Data sharing library."

:class:`LibVDAP` is that facade, and :meth:`call` is the REST-shaped entry
point: ``call("GET", "/models")`` etc., so an application written against
the route table needs no knowledge of the platform internals.
"""

from __future__ import annotations

from typing import Any

from ..ddi.service import DDIService
from ..edgeos.sharing import DataSharingBus
from ..offload.strategies import DynamicVDAP
from ..offload.task import TaskGraph
from ..topology.world import World
from ..vcu.dsf import DSF
from .models import CommonModelLibrary

__all__ = ["ApiError", "LibVDAP"]


class ApiError(KeyError):
    """Unknown route or missing parameter."""


class LibVDAP:
    """The developer-facing library wired to the platform's subsystems."""

    def __init__(
        self,
        dsf: DSF,
        ddi: DDIService,
        sharing: DataSharingBus,
        world: World | None = None,
        models: CommonModelLibrary | None = None,
    ):
        self.dsf = dsf
        self.ddi = ddi
        self.sharing = sharing
        self.world = world
        self.models = models or CommonModelLibrary()
        self._offloader = DynamicVDAP()

    # -- Common model library ---------------------------------------------------

    def list_models(self, category: str | None = None) -> list[dict]:
        return [
            {
                "name": entry.name,
                "category": entry.category,
                "full_size_bytes": entry.full.size_bytes,
                "compressed_size_bytes": entry.compressed.size_bytes,
                "compressed_gflop": entry.compressed.forward_gflop,
            }
            for entry in self.models.list(category)
        ]

    def get_model(self, name: str) -> dict:
        entry = self.models.get(name)
        return {
            "name": entry.name,
            "category": entry.category,
            "task": entry.full.task,
            "full_size_bytes": entry.full.size_bytes,
            "compressed_size_bytes": entry.compressed.size_bytes,
        }

    # -- VCU system resources library ------------------------------------------------

    def system_resources(self) -> dict[str, dict]:
        """Live device profiles (the mHEP view)."""
        return self.dsf.mhep.profiles()

    def submit(self, graph: TaskGraph, priority: int = 0):
        """Run a task graph on the VCU; returns the DSF job's ``done`` event,
        whose value is the :class:`~repro.vcu.JobResult`."""
        return self.dsf.submit(graph, priority=priority)

    def plan_offload(self, graph: TaskGraph, deadline_s: float | None = None):
        """Ask the platform where a graph should execute right now."""
        if self.world is None:
            raise ApiError("no world attached: offload planning unavailable")
        return self._offloader.decide(graph, self.world, deadline_s=deadline_s)

    # -- Data sharing library -----------------------------------------------------------

    def data_download(self, stream: str, t0: float, t1: float, bbox=None):
        return self.ddi.download(stream, t0, t1, bbox=bbox)

    def data_upload(self, record) -> None:
        self.ddi.upload(record)

    def publish(self, service: str, token: str, topic: str, payload: Any):
        return self.sharing.publish(service, token, topic, payload)

    def read_topic(self, service: str, token: str, topic: str, since: int = 0):
        return self.sharing.read(service, token, topic, since=since)

    # -- REST-shaped dispatch ----------------------------------------------------------------

    _ROUTES = {
        ("GET", "/models"): lambda self, p: self.list_models(p.get("category")),
        ("GET", "/models/{name}"): lambda self, p: self.get_model(p["name"]),
        ("GET", "/resources"): lambda self, p: self.system_resources(),
        ("POST", "/tasks"): lambda self, p: self.submit(
            p["graph"], priority=p.get("priority", 0)
        ),
        ("POST", "/offload/plan"): lambda self, p: self.plan_offload(
            p["graph"], deadline_s=p.get("deadline_s")
        ),
        ("GET", "/data/{stream}"): lambda self, p: self.data_download(
            p["stream"], p["t0"], p["t1"], p.get("bbox")
        ),
        ("POST", "/data"): lambda self, p: self.data_upload(p["record"]),
        ("POST", "/topics/{topic}"): lambda self, p: self.publish(
            p["service"], p["token"], p["topic"], p["payload"]
        ),
        ("GET", "/topics/{topic}"): lambda self, p: self.read_topic(
            p["service"], p["token"], p["topic"], since=p.get("since", 0)
        ),
    }

    def call(self, method: str, path: str, **params) -> Any:
        """REST-shaped entry point: route a (method, path) to the facade.

        Path segments in braces bind to parameters: ``call("GET",
        "/models/yolo_v2")`` sets ``name="yolo_v2"``.
        """
        for (route_method, route_path), handler in self._ROUTES.items():
            if route_method != method.upper():
                continue
            bound = self._match(route_path, path)
            if bound is None:
                continue
            merged = dict(params)
            merged.update(bound)
            try:
                return handler(self, merged)
            except KeyError as err:
                if isinstance(err, ApiError):
                    raise
                raise ApiError(f"missing parameter for {method} {path}: {err}") from err
        raise ApiError(f"no route for {method} {path}")

    @staticmethod
    def _match(template: str, path: str) -> dict | None:
        t_parts = template.strip("/").split("/")
        p_parts = path.strip("/").split("/")
        if len(t_parts) != len(p_parts):
            return None
        bound: dict[str, str] = {}
        for t, p in zip(t_parts, p_parts):
            if t.startswith("{") and t.endswith("}"):
                bound[t[1:-1]] = p
            elif t != p:
                return None
        return bound
