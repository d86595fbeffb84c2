"""Offloading engine: task graphs, placement evaluation, strategies."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .executor import DistributedExecutor, ExecutionResult, TaskFailure
    from .layersplit import (
        LayerProfile,
        SplitDecision,
        best_split,
        inception_v3_layers,
        speech_encoder_layers,
    )
    from .placement import Placement, PlacementEvaluation, evaluate_placement
    from .strategies import (
        BASELINES,
        CloudOnly,
        DynamicVDAP,
        EdgeOnly,
        Exhaustive,
        Greedy,
        LocalOnly,
        OffloadDecision,
        Strategy,
    )
    from .task import Task, TaskGraph

__all__ = [
    "BASELINES",
    "LayerProfile",
    "SplitDecision",
    "best_split",
    "inception_v3_layers",
    "speech_encoder_layers",
    "CloudOnly",
    "DistributedExecutor",
    "ExecutionResult",
    "DynamicVDAP",
    "EdgeOnly",
    "Exhaustive",
    "Greedy",
    "LocalOnly",
    "OffloadDecision",
    "Placement",
    "PlacementEvaluation",
    "Strategy",
    "Task",
    "TaskFailure",
    "TaskGraph",
    "evaluate_placement",
]

__getattr__, __dir__ = _lazy_exports(__name__)
