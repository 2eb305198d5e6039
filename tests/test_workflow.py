"""DAG construction counts, execution order against an exhaustive
topological oracle, and failure propagation."""

from __future__ import annotations

from itertools import permutations

import pytest

from fleetchain.clock import FakeClock
from fleetchain.workflow import (
    PSEUDO_KINDS,
    TaskKind,
    TaskNode,
    WorkflowError,
    WorkflowGraph,
    build_graph,
    execute,
)


def ok_handlers(log=None):
    def handler(node, inputs):
        if log is not None:
            log.append(node.id)
        return f"out:{node.id}"

    return {kind: handler for kind in TaskKind}


def all_topological_orders(graph):
    """Oracle: every permutation of the node ids that respects each edge."""
    ids = [n.id for n in graph.nodes]
    orders = []
    for perm in permutations(ids):
        pos = {tid: i for i, tid in enumerate(perm)}
        if all(pos[src] < pos[dst] for src, dst in graph.edges):
            orders.append(list(perm))
    return orders


# --- template construction --------------------------------------------------

def expected_node_count(n, df_mask):
    return 5 + sum(2 + int(flag) for flag in df_mask)


@pytest.mark.parametrize(
    "n,df_mask",
    [
        (0, ()),
        (1, (True,)),
        (1, (False,)),
        (2, (True, False)),
        (3, (True, True, True)),
        (3, (False, False, False)),
    ],
)
def test_node_count_formula(n, df_mask):
    graph = build_graph(n, df_mask)
    assert len(graph.nodes) == expected_node_count(n, df_mask)


def test_zero_vehicles_degenerates_to_chain():
    graph = build_graph(0)
    assert [n.id for n in graph.nodes] == ["in", "wp1", "ag", "da", "out"]
    assert set(graph.edges) == {("in", "wp1"), ("wp1", "ag"), ("ag", "da"), ("da", "out")}


def test_three_vehicle_counts():
    graph = build_graph(3)
    assert len(graph.nodes) == 14
    # in->wp1 + 3x(wp1->sp, sp->dc, dc->df, df->ag) + ag->da + da->out
    assert len(graph.edges) == 1 + 3 * 4 + 2


def test_df_mask_toggles_lane_shape():
    graph = build_graph(2, (True, False))
    ids = {n.id for n in graph.nodes}
    assert "df1" in ids and "df2" not in ids
    assert ("dc1", "df1") in graph.edges
    assert ("dc2", "ag") in graph.edges


def test_mask_length_checked():
    with pytest.raises(ValueError, match="df_mask length"):
        build_graph(2, (True,))


def test_vehicle_index_rules():
    with pytest.raises(ValueError, match="needs a vehicle index"):
        TaskNode("sp1", TaskKind.SP)
    with pytest.raises(ValueError, match="must not carry"):
        TaskNode("ag", TaskKind.AG, vehicle_index=1)


def test_graph_rejects_unknown_edge_endpoint():
    with pytest.raises(ValueError, match="unknown task"):
        WorkflowGraph(
            nodes=(TaskNode("in", TaskKind.IN),),
            edges=(("in", "ghost"),),
            n_vehicles=0,
        )


# --- execution order --------------------------------------------------------

@pytest.mark.parametrize("n,df_mask", [(0, ()), (1, (False,)), (1, (True,))])
def test_executed_order_is_topological_by_oracle(n, df_mask):
    graph = build_graph(n, df_mask)
    assert len(graph.nodes) <= 8  # keep the permutation oracle tractable
    trace = execute(graph, ok_handlers())
    assert trace.order() in all_topological_orders(graph)


def test_order_deterministic_and_insertion_biased():
    graph = build_graph(3)
    t1 = execute(graph, ok_handlers())
    t2 = execute(graph, ok_handlers())
    assert t1.order() == t2.order()
    # ties broken by declaration order: lane 1 activates before lane 2
    assert t1.order().index("sp1") < t1.order().index("sp2")


def test_handlers_receive_predecessor_outputs():
    seen = {}

    def spy(node, inputs):
        seen[node.id] = dict(inputs)
        return node.id

    trace = execute(build_graph(1), {kind: spy for kind in TaskKind})
    assert trace.status == "ok"
    assert seen["in"] == {}
    assert seen["dc1"] == {"sp1": "sp1"}
    assert seen["ag"] == {"df1": "df1"}
    assert seen["da"] == {"ag": "ag"}


def test_outputs_collected():
    trace = execute(build_graph(0), ok_handlers())
    assert trace.outputs["da"] == "out:da"


# --- timing and pseudo-tasks ------------------------------------------------

def test_pseudo_tasks_take_no_time():
    clock = FakeClock(step=1.0)
    trace = execute(build_graph(2), ok_handlers(), clock=clock)
    for entry in trace.entries:
        kind = build_graph(2).node(entry.task_id).kind
        if kind in PSEUDO_KINDS:
            assert entry.start == entry.end
        else:
            assert entry.end > entry.start


def test_entries_cover_all_nodes_once():
    graph = build_graph(3, (True, False, True))
    trace = execute(graph, ok_handlers())
    assert sorted(trace.order()) == sorted(n.id for n in graph.nodes)


# --- failure semantics ------------------------------------------------------

def failing_on(bad_id):
    def handler(node, inputs):
        if node.id == bad_id:
            raise RuntimeError("boom")
        return node.id

    return {kind: handler for kind in TaskKind}


def test_failure_skips_descendants_but_not_siblings():
    graph = build_graph(2)
    trace = execute(graph, failing_on("dc1"))
    assert trace.status == "failed"
    status = {e.task_id: e.status for e in trace.entries}
    assert status["dc1"] == "failed"
    assert status["df1"] == "skipped"
    assert status["ag"] == "skipped"  # shared join sees the bad lane
    assert status["da"] == "skipped"
    assert status["out"] == "skipped"
    # the unrelated lane still ran
    assert status["sp2"] == "ok" and status["dc2"] == "ok" and status["df2"] == "ok"


def test_failed_entry_keeps_the_exception_text():
    trace = execute(build_graph(1), failing_on("dc1"), clock=FakeClock(step=0.5))
    assert {e.task_id: e.error for e in trace.entries if e.error} == {
        "dc1": "RuntimeError: boom"
    }
    assert [(e.task_id, e.start, e.end, e.status) for e in trace.entries] == [
        ("in", 0.0, 0.0, "ok"),
        ("wp1", 0.5, 1.0, "ok"),
        ("sp1", 1.5, 1.5, "ok"),
        ("dc1", 2.0, 2.5, "failed"),
        ("df1", 3.0, 3.0, "skipped"),
        ("ag", 3.5, 3.5, "skipped"),
        ("da", 4.0, 4.0, "skipped"),
        ("out", 4.5, 4.5, "skipped"),
    ]


def test_skipped_tasks_have_zero_duration():
    trace = execute(build_graph(1), failing_on("wp1"), clock=FakeClock(step=1.0))
    for e in trace.entries:
        if e.status == "skipped":
            assert e.start == e.end


def test_failed_root_skips_everything_downstream():
    trace = execute(build_graph(0), failing_on("in"))
    statuses = [e.status for e in trace.entries]
    assert statuses == ["failed", "skipped", "skipped", "skipped", "skipped"]


def test_missing_handler_rejected_before_running():
    handlers = ok_handlers()
    del handlers[TaskKind.DA]
    with pytest.raises(WorkflowError, match="no handler for task kind DA"):
        execute(build_graph(0), handlers)


def test_cycle_detected():
    nodes = (
        TaskNode("in", TaskKind.IN),
        TaskNode("wp1", TaskKind.WP1),
        TaskNode("ag", TaskKind.AG),
        TaskNode("da", TaskKind.DA),
        TaskNode("out", TaskKind.OUT),
    )
    edges = (("in", "wp1"), ("wp1", "ag"), ("ag", "da"), ("da", "wp1"), ("da", "out"))
    graph = WorkflowGraph(nodes=nodes, edges=edges, n_vehicles=0)
    with pytest.raises(WorkflowError, match="cycle"):
        execute(graph, ok_handlers())
