"""TaskGraph structure pins: order, roots, sinks and adjacency lists.

Every literal below was captured from the networkx ``DiGraph`` the graph
used to wrap (``topological_sort`` for :attr:`TaskGraph.task_names`), so
these tests hold the dict-of-lists DAG to exactly that behaviour.  The
out-of-order graph is the sharp case: its second generation lists
``mid1`` before ``mid2`` because ``root1`` releases them in that order,
although ``mid2`` was added first.
"""

import pytest

from repro.hw import WorkloadClass
from repro.offload import Task, TaskGraph
from repro.workloads.services import (
    adas_frame_graph,
    amber_search_graph,
    diagnostics_graph,
    infotainment_chunk_graph,
)


def _task(name):
    return Task(name, 1.0, WorkloadClass.DNN)


def chain_graph():
    return TaskGraph.chain("chain", [_task("x"), _task("y"), _task("z")])


def diamond_graph():
    graph = TaskGraph("diamond")
    for name in "abcd":
        graph.add_task(_task(name))
    for producer, consumer in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        graph.add_edge(producer, consumer)
    return graph


def out_of_order_graph():
    """Tasks added sinks-first and edges added in no topological order."""
    graph = TaskGraph("out-of-order")
    for name in ("sink", "mid2", "root2", "mid1", "root1", "lone"):
        graph.add_task(_task(name))
    for producer, consumer in (
        ("mid1", "sink"), ("root2", "mid2"), ("root1", "mid1"),
        ("mid2", "sink"), ("root1", "mid2"), ("root2", "sink"),
    ):
        graph.add_edge(producer, consumer)
    return graph


def shape(graph):
    return {
        "task_names": graph.task_names,
        "roots": graph.roots,
        "sinks": graph.sinks,
        "predecessors": {n: graph.predecessors(n) for n in graph.task_names},
        "successors": {n: graph.successors(n) for n in graph.task_names},
    }


PINNED = {
    "adas": (adas_frame_graph, {
        "task_names": ["capture", "lane-detect", "vehicle-detect", "fuse-alert"],
        "roots": ["capture"],
        "sinks": ["fuse-alert"],
        "predecessors": {
            "capture": [],
            "lane-detect": ["capture"],
            "vehicle-detect": ["capture"],
            "fuse-alert": ["lane-detect", "vehicle-detect"],
        },
        "successors": {
            "capture": ["lane-detect", "vehicle-detect"],
            "lane-detect": ["fuse-alert"],
            "vehicle-detect": ["fuse-alert"],
            "fuse-alert": [],
        },
    }),
    "amber": (amber_search_graph, {
        "task_names": ["motion-detect", "plate-detect", "plate-recognize"],
        "roots": ["motion-detect"],
        "sinks": ["plate-recognize"],
        "predecessors": {
            "motion-detect": [],
            "plate-detect": ["motion-detect"],
            "plate-recognize": ["plate-detect"],
        },
        "successors": {
            "motion-detect": ["plate-detect"],
            "plate-detect": ["plate-recognize"],
            "plate-recognize": [],
        },
    }),
    "infotainment": (infotainment_chunk_graph, {
        "task_names": ["decode", "render"],
        "roots": ["decode"],
        "sinks": ["render"],
        "predecessors": {"decode": [], "render": ["decode"]},
        "successors": {"decode": ["render"], "render": []},
    }),
    "diagnostics": (diagnostics_graph, {
        "task_names": ["aggregate", "fault-predict"],
        "roots": ["aggregate"],
        "sinks": ["fault-predict"],
        "predecessors": {"aggregate": [], "fault-predict": ["aggregate"]},
        "successors": {"aggregate": ["fault-predict"], "fault-predict": []},
    }),
    "chain": (chain_graph, {
        "task_names": ["x", "y", "z"],
        "roots": ["x"],
        "sinks": ["z"],
        "predecessors": {"x": [], "y": ["x"], "z": ["y"]},
        "successors": {"x": ["y"], "y": ["z"], "z": []},
    }),
    "diamond": (diamond_graph, {
        "task_names": ["a", "b", "c", "d"],
        "roots": ["a"],
        "sinks": ["d"],
        "predecessors": {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]},
        "successors": {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []},
    }),
    "out-of-order": (out_of_order_graph, {
        "task_names": ["root2", "root1", "lone", "mid1", "mid2", "sink"],
        "roots": ["root2", "root1", "lone"],
        "sinks": ["sink", "lone"],
        "predecessors": {
            "root2": [],
            "root1": [],
            "lone": [],
            "mid1": ["root1"],
            "mid2": ["root2", "root1"],
            "sink": ["mid1", "mid2", "root2"],
        },
        "successors": {
            "root2": ["mid2", "sink"],
            "root1": ["mid1", "mid2"],
            "lone": [],
            "mid1": ["sink"],
            "mid2": ["sink"],
            "sink": [],
        },
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_graph_shape_matches_pin(case):
    factory, expected = PINNED[case]
    assert shape(factory()) == expected


@pytest.mark.parametrize("case", sorted(PINNED))
def test_duplicate_edges_change_nothing(case):
    factory, expected = PINNED[case]
    graph = factory()
    for producer, consumers in expected["successors"].items():
        for consumer in consumers:
            graph.add_edge(producer, consumer)
    assert shape(graph) == expected


def test_order_is_cached_and_invalidated_by_edits():
    graph = diamond_graph()
    first = graph.task_names
    first.reverse()  # callers get a copy, never the cache
    assert graph.task_names == ["a", "b", "c", "d"]
    graph.add_task(_task("e"))
    graph.add_edge("e", "a")
    assert graph.task_names == ["e", "a", "b", "c", "d"]


def test_cycle_and_self_loop_rejected():
    graph = out_of_order_graph()
    with pytest.raises(ValueError, match="creates a cycle"):
        graph.add_edge("sink", "root1")
    with pytest.raises(ValueError, match="creates a cycle"):
        graph.add_edge("lone", "lone")
    assert shape(graph) == PINNED["out-of-order"][1]


def test_unknown_task_raises_key_error():
    graph = diamond_graph()
    with pytest.raises(KeyError, match="unknown task 'ghost'"):
        graph.add_edge("a", "ghost")
    with pytest.raises(KeyError, match="unknown task 'ghost'"):
        graph.add_edge("ghost", "a")
    with pytest.raises(KeyError):
        graph.task("ghost")
