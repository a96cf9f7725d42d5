"""Topological sorting for :class:`~repro.graphs.digraph.DiGraph`.

The constructive half of Theorem 1 turns an acyclic relative serialization
graph into an *equivalent relatively serial schedule* by topologically
sorting its operations.  Any topological order works for the theorem; for
reproducibility this module lets the caller supply a ``key`` so ties are
broken deterministically (the RSG code passes the operation's position in
the original schedule, producing the equivalent schedule "closest" to the
input).
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
