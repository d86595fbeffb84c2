"""Canonical service workloads: the task graphs of the paper's four service
classes (SII), with costs taken from the vision/nn substrates.

These are the graphs the offloading ablations schedule: per-frame ADAS
perception, the A3 plate-search split pipeline, an infotainment decode
chunk, and a diagnostics batch -- the mix the paper's introduction
motivates.
"""

from __future__ import annotations

from ..hw.processor import WorkloadClass
from ..offload.task import Task, TaskGraph

__all__ = [
    "ADAS_TASKS",
    "adas_frame_graph",
    "amber_search_graph",
    "infotainment_chunk_graph",
    "diagnostics_graph",
    "STANDARD_MIX",
]

#: A 640x480x3 camera frame, lightly compressed.
FRAME_BYTES = 400_000

#: The ADAS frame graph's tasks, in the order the graph lists them.
ADAS_TASKS: tuple[str, ...] = (
    "capture", "lane-detect", "vehicle-detect", "fuse-alert",
)


def adas_frame_graph(
    lane_gop: float = 0.022, detect_gop: float = 30.5
) -> TaskGraph:
    """Per-frame ADAS perception: lane detection + CNN vehicle detection.

    Default costs are the measured op counts of the vision substrate
    (Table I): ~22 Mops of classic CV and ~30 Gops of CNN scan.
    """
    capture, lane, detect, fuse = ADAS_TASKS
    graph = TaskGraph("adas-frame")
    graph.add_task(
        Task(capture, 0.001, WorkloadClass.IO, output_bytes=FRAME_BYTES,
             source_bytes=FRAME_BYTES)
    )
    graph.add_task(Task(lane, lane_gop, WorkloadClass.VISION, output_bytes=500))
    graph.add_task(Task(detect, detect_gop, WorkloadClass.DNN, output_bytes=2_000))
    graph.add_task(Task(fuse, 0.002, WorkloadClass.CONTROL, output_bytes=200))
    graph.add_edge(capture, lane)
    graph.add_edge(capture, detect)
    graph.add_edge(lane, fuse)
    graph.add_edge(detect, fuse)
    return graph


def amber_search_graph() -> TaskGraph:
    """The A3 kidnapper search: motion -> plate detect -> plate recognize
    (the three-way split of paper SIV-C and [17])."""
    return TaskGraph.chain(
        "amber-search",
        [
            Task("motion-detect", 0.05, WorkloadClass.VISION,
                 output_bytes=150_000, source_bytes=FRAME_BYTES),
            Task("plate-detect", 6.0, WorkloadClass.DNN, output_bytes=30_000),
            Task("plate-recognize", 3.0, WorkloadClass.DNN, output_bytes=100),
        ],
    )


def infotainment_chunk_graph(chunk_bytes: float = 2_500_000) -> TaskGraph:
    """One 4-second media chunk: download implied by source, then decode."""
    return TaskGraph.chain(
        "infotainment-chunk",
        [
            Task("decode", 1.2, WorkloadClass.SIGNAL,
                 output_bytes=50_000, source_bytes=chunk_bytes),
            Task("render", 0.3, WorkloadClass.SIGNAL, output_bytes=0.0),
        ],
    )


def diagnostics_graph() -> TaskGraph:
    """Quiet background analysis of collected OBD data (SII-A)."""
    return TaskGraph.chain(
        "diagnostics",
        [
            Task("aggregate", 0.01, WorkloadClass.IO, output_bytes=50_000,
                 source_bytes=500_000),
            Task("fault-predict", 0.8, WorkloadClass.DNN, output_bytes=1_000),
        ],
    )


#: The standard mixed workload of the ablations: (graph factory, deadline s).
STANDARD_MIX = (
    (adas_frame_graph, 0.25),
    (amber_search_graph, 2.0),
    (infotainment_chunk_graph, 4.0),
    (diagnostics_graph, 30.0),
)
