"""Task graphs: the unit of offloading.

A service is modelled as a DAG of tasks (paper SIV-B2: "DSF divides the
original applications into some sub-tasks by fine-grained").  Each task has
an arithmetic cost, a workload class (which processors can run it and how
fast), and an output size (what must cross the network if its consumer is
placed elsewhere).  Root tasks additionally consume source data -- sensor
bytes that originate on the vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.processor import WorkloadClass

__all__ = ["Task", "TaskGraph"]


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``source_bytes`` is nonzero only for root tasks: the sensor data they
    ingest (e.g. a camera frame), which lives on the vehicle.
    """

    name: str
    work_gop: float
    workload: WorkloadClass
    output_bytes: float = 0.0
    source_bytes: float = 0.0
    memory_gb: float = 0.0

    def __post_init__(self):
        if self.work_gop < 0 or self.output_bytes < 0 or self.source_bytes < 0:
            raise ValueError(f"task {self.name}: negative cost")


class TaskGraph:
    """A DAG of tasks with dependency edges.

    Tasks and each task's predecessor and successor lists keep insertion
    order, and :attr:`task_names` is Kahn's algorithm run one generation
    at a time -- the order ``networkx.topological_sort`` gives.
    ``version`` counts changes (added tasks and edges); caches of the
    graph's shape, its own and its readers', are valid while it holds.
    """

    def __init__(self, name: str):
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        self._topo: list[str] | None = None
        self._indegree: dict[str, int] | None = None
        self.version = 0

    def add_task(self, task: Task) -> Task:
        if task.name in self._tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = []
        self._pred[task.name] = []
        self._topo = self._indegree = None
        self.version += 1
        return task

    def add_edge(self, producer: str, consumer: str) -> None:
        for name in (producer, consumer):
            if name not in self._tasks:
                raise KeyError(f"unknown task {name!r}")
        # The graph is acyclic before the edge, so producer->consumer closes
        # a cycle iff consumer already reaches producer.
        if producer == consumer or self._reaches(consumer, producer):
            raise ValueError(f"edge {producer}->{consumer} creates a cycle")
        if consumer in self._succ[producer]:
            return
        self._succ[producer].append(consumer)
        self._pred[consumer].append(producer)
        self._topo = self._indegree = None
        self.version += 1

    def _reaches(self, start: str, goal: str) -> bool:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return False

    def task(self, name: str) -> Task:
        return self._tasks[name]

    @property
    def task_names(self) -> list[str]:
        if self._topo is None:
            indegree = self.in_degrees()
            order = self.roots
            # A FIFO over ``order`` visits whole generations in turn, each
            # in the order its tasks' last predecessor released them.
            for name in order:
                for child in self._succ[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        order.append(child)
            self._topo = order
        return list(self._topo)

    @property
    def tasks(self) -> list[Task]:
        return [self.task(name) for name in self.task_names]

    def in_degrees(self) -> dict[str, int]:
        """Each task's number of predecessors, in insertion order (a copy
        of a table the graph keeps until it changes)."""
        if self._indegree is None:
            self._indegree = {name: len(preds) for name, preds in self._pred.items()}
        return dict(self._indegree)

    def predecessors(self, name: str) -> list[str]:
        return list(self._pred[name])

    def successors(self, name: str) -> list[str]:
        return list(self._succ[name])

    @property
    def roots(self) -> list[str]:
        return [name for name, preds in self._pred.items() if not preds]

    @property
    def sinks(self) -> list[str]:
        return [name for name, succ in self._succ.items() if not succ]

    def __len__(self) -> int:
        return len(self._tasks)

    @classmethod
    def chain(cls, name: str, tasks: list[Task]) -> "TaskGraph":
        """Convenience: a linear pipeline of tasks."""
        graph = cls(name)
        for task in tasks:
            graph.add_task(task)
        for a, b in zip(tasks, tasks[1:]):
            graph.add_edge(a.name, b.name)
        return graph
