"""Typed DAG engine for the staged data-collection pipeline.

The graph template has one initialization task, a per-vehicle lane of
activation / collection / optional filtration tasks, and a shared
aggregation, archiving, and sink tail:

    IN -> WP1 -> (SPn -> DCn [-> DFn]) x N -> AG -> DA -> OUT

IN, SPn, and OUT are pseudo-tasks: they order the run but take no time of
their own and appear in traces with start == end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .clock import MONOTONIC


class TaskKind(str, Enum):
    IN = "IN"
    WP1 = "WP1"
    SP = "SP"
    DC = "DC"
    DF = "DF"
    AG = "AG"
    DA = "DA"
    OUT = "OUT"


PSEUDO_KINDS = frozenset({TaskKind.IN, TaskKind.SP, TaskKind.OUT})
_PER_VEHICLE = frozenset({TaskKind.SP, TaskKind.DC, TaskKind.DF})

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


class WorkflowError(Exception):
    pass


@dataclass(frozen=True)
class TaskNode:
    id: str
    kind: TaskKind
    vehicle_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind in _PER_VEHICLE:
            if self.vehicle_index is None or self.vehicle_index < 1:
                raise ValueError(f"{self.kind.value} task {self.id!r} needs a vehicle index >= 1")
        elif self.vehicle_index is not None:
            raise ValueError(f"{self.kind.value} task {self.id!r} must not carry a vehicle index")


@dataclass(frozen=True)
class WorkflowGraph:
    nodes: tuple[TaskNode, ...]
    edges: tuple[tuple[str, str], ...]
    n_vehicles: int

    def __post_init__(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        known = set(ids)
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src!r}, {dst!r}) references unknown task")

    def node(self, task_id: str) -> TaskNode:
        for n in self.nodes:
            if n.id == task_id:
                return n
        raise KeyError(task_id)

    def predecessors(self, task_id: str) -> list[str]:
        return [src for src, dst in self.edges if dst == task_id]

    def successors(self, task_id: str) -> list[str]:
        return [dst for src, dst in self.edges if src == task_id]


def build_graph(n_vehicles: int, df_mask: tuple[bool, ...] | None = None) -> WorkflowGraph:
    """Instantiate the pipeline template for ``n_vehicles`` lanes.

    Args:
        n_vehicles: number of per-vehicle lanes, >= 0.  Zero vehicles
            degenerate to the chain IN -> WP1 -> AG -> DA -> OUT.
        df_mask: per-vehicle flag for the optional filtration task; defaults
            to all True.

    The node count is 5 + sum over vehicles of (2 + df flag).
    """
    if n_vehicles < 0:
        raise ValueError("n_vehicles must be >= 0")
    if df_mask is None:
        df_mask = tuple(True for _ in range(n_vehicles))
    if len(df_mask) != n_vehicles:
        raise ValueError(f"df_mask length {len(df_mask)} != n_vehicles {n_vehicles}")

    nodes = [TaskNode("in", TaskKind.IN), TaskNode("wp1", TaskKind.WP1)]
    edges = [("in", "wp1")]
    for v in range(1, n_vehicles + 1):
        sp, dc, df = f"sp{v}", f"dc{v}", f"df{v}"
        nodes.append(TaskNode(sp, TaskKind.SP, vehicle_index=v))
        nodes.append(TaskNode(dc, TaskKind.DC, vehicle_index=v))
        edges.append(("wp1", sp))
        edges.append((sp, dc))
        if df_mask[v - 1]:
            nodes.append(TaskNode(df, TaskKind.DF, vehicle_index=v))
            edges.append((dc, df))
            edges.append((df, "ag"))
        else:
            edges.append((dc, "ag"))
    nodes.append(TaskNode("ag", TaskKind.AG))
    nodes.append(TaskNode("da", TaskKind.DA))
    nodes.append(TaskNode("out", TaskKind.OUT))
    if n_vehicles == 0:
        edges.append(("wp1", "ag"))
    edges.append(("ag", "da"))
    edges.append(("da", "out"))
    return WorkflowGraph(nodes=tuple(nodes), edges=tuple(edges), n_vehicles=n_vehicles)


@dataclass(frozen=True)
class TraceEntry:
    task_id: str
    start: float
    end: float
    status: str
    error: str | None = None  # "{type}: {message}" of a failed task's exception


@dataclass(frozen=True)
class RunTrace:
    entries: tuple[TraceEntry, ...]
    status: str
    outputs: Mapping[str, object] = field(default_factory=dict)

    def entry(self, task_id: str) -> TraceEntry:
        for e in self.entries:
            if e.task_id == task_id:
                return e
        raise KeyError(task_id)

    def order(self) -> list[str]:
        return [e.task_id for e in self.entries]


Handler = Callable[[TaskNode, dict[str, object]], object]


def execute(
    graph: WorkflowGraph,
    handlers: Mapping[TaskKind, Handler],
    *,
    clock: Callable[[], float] = MONOTONIC,
) -> RunTrace:
    """Run every task once in a topological order.

    Each handler receives its node and a dict mapping predecessor ids to
    their outputs.  A raising handler marks its task failed, and the entry
    keeps the exception's type and message in ``error``; every descendant
    is then skipped and the run status becomes "failed".  Failures in one
    lane do not stop unrelated lanes.

    Raises:
        WorkflowError: a node kind without a handler, or a cyclic graph.
    """
    for n in graph.nodes:
        if n.kind not in handlers:
            raise WorkflowError(f"no handler for task kind {n.kind.value}")

    order_index = {n.id: i for i, n in enumerate(graph.nodes)}
    indegree = {n.id: 0 for n in graph.nodes}
    for _, dst in graph.edges:
        indegree[dst] += 1
    ready = sorted((i for i in indegree if indegree[i] == 0), key=order_index.__getitem__)

    entries: list[TraceEntry] = []
    outputs: dict[str, object] = {}
    bad: set[str] = set()  # failed or skipped tasks
    while ready:
        task_id = ready.pop(0)
        node = graph.node(task_id)
        preds = graph.predecessors(task_id)
        if any(p in bad for p in preds):
            t = clock()
            entries.append(TraceEntry(task_id, t, t, STATUS_SKIPPED))
            bad.add(task_id)
        else:
            inputs = {p: outputs[p] for p in preds}
            start = clock()
            try:
                result = handlers[node.kind](node, inputs)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                entries.append(TraceEntry(task_id, start, clock(), STATUS_FAILED, error))
                bad.add(task_id)
            else:
                end = start if node.kind in PSEUDO_KINDS else clock()
                entries.append(TraceEntry(task_id, start, end, STATUS_OK))
                outputs[task_id] = result
        for succ in graph.successors(task_id):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort(key=order_index.__getitem__)

    if len(entries) != len(graph.nodes):
        raise WorkflowError("graph contains a cycle")
    status = STATUS_FAILED if bad else STATUS_OK
    return RunTrace(entries=tuple(entries), status=status, outputs=outputs)


def serialize_graph(graph: WorkflowGraph) -> str:
    """Line-oriented text form: one ``node`` line per task, one ``edge`` per arc."""
    lines = [f"vehicles {graph.n_vehicles}"]
    for n in graph.nodes:
        vi = "-" if n.vehicle_index is None else str(n.vehicle_index)
        lines.append(f"node {n.id} {n.kind.value} {vi}")
    for src, dst in graph.edges:
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"


def serialize_trace(trace: RunTrace) -> str:
    lines = [f"status {trace.status}"]
    for e in trace.entries:
        lines.append(f"trace {e.task_id} {e.start!r} {e.end!r} {e.status}")
    return "\n".join(lines) + "\n"
