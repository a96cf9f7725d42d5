"""Topological sorting for :class:`~repro.graphs.digraph.DiGraph`.

Kahn's algorithm over a labelled digraph, with a caller-supplied ``key``
so ties are broken deterministically.  Its callers are the classical
conflict-serializability test (:mod:`repro.core.serializability`, which
orders transactions by id) and the tests, which use it as an independent
oracle for the RSG's witness: the constructive half of Theorem 1
(:meth:`~repro.core.rsg.RelativeSerializationGraph.
equivalent_relatively_serial_schedule`) sorts in integer id-space without
building a :class:`DiGraph`, and must produce exactly the order this
function gives on the RSG's labelled graph with ``key=schedule.position``.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable

from repro.errors import CycleError
from repro.graphs.digraph import DiGraph

__all__ = ["topological_sort"]

Node = Hashable


def topological_sort(
    graph: DiGraph,
    key: Callable[[Node], object] | None = None,
) -> list[Node]:
    """Return the nodes of ``graph`` in topological order.

    Kahn's algorithm with a priority queue: among all nodes whose
    predecessors have been emitted, the one minimizing ``key`` is emitted
    next.  With ``key=None`` ties are broken by ``repr`` for determinism.

    Raises :class:`~repro.errors.CycleError` if the graph is cyclic.
    """
    if key is None:
        key = repr
    in_degree = {node: graph.in_degree(node) for node in graph}
    # The counter breaks ties between equal keys so heapq never has to
    # compare the (possibly unorderable) nodes themselves.
    counter = 0
    ready: list[tuple[object, int, Node]] = []
    for node, degree in in_degree.items():
        if degree == 0:
            ready.append((key(node), counter, node))
            counter += 1
    heapq.heapify(ready)

    order: list[Node] = []
    while ready:
        _, _, node = heapq.heappop(ready)
        order.append(node)
        for succ in graph.successors(node):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(ready, (key(succ), counter, succ))
                counter += 1

    if len(order) != graph.node_count:
        raise CycleError(
            "graph is cyclic; no topological order exists "
            f"({graph.node_count - len(order)} nodes unreachable)"
        )
    return order
