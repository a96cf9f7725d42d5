"""Cycle detection for :class:`~repro.graphs.digraph.DiGraph`.

Serializability (the classical serialization graph), SGT certification and
the lock managers' deadlock detection all reduce to an acyclicity test over
a :class:`DiGraph`.  (The RSG has its own detector over its id-space arc
set, :attr:`repro.core.rsg.RelativeSerializationGraph.cycle`.)  The detector
is an iterative three-colour DFS (no recursion, so very deep graphs cannot
hit Python's recursion limit) that returns an explicit witness cycle when
one exists — useful both for diagnostics and for the online protocols,
which need to know *which* transaction to abort.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.graphs.digraph import DiGraph

__all__ = ["find_cycle", "is_acyclic"]

Node = Hashable

_WHITE, _GREY, _BLACK = 0, 1, 2


def find_cycle(graph: DiGraph) -> list[Node] | None:
    """Return one cycle of ``graph`` as a node list, or ``None`` if acyclic.

    The returned list ``[n0, n1, ..., nk]`` satisfies ``n0 == nk`` and each
    consecutive pair is an edge of the graph.  Which cycle is returned is
    deterministic for a given insertion order.
    """
    colour: dict[Node, int] = {node: _WHITE for node in graph}
    parent: dict[Node, Node] = {}

    for root in graph:
        if colour[root] != _WHITE:
            continue
        # Each stack entry is (node, iterator over its successors).
        stack: list[tuple[Node, list[Node]]] = [(root, sorted_succ(graph, root))]
        colour[root] = _GREY
        while stack:
            node, succ = stack[-1]
            if succ:
                child = succ.pop()
                if colour[child] == _WHITE:
                    colour[child] = _GREY
                    parent[child] = node
                    stack.append((child, sorted_succ(graph, child)))
                elif colour[child] == _GREY:
                    return _extract_cycle(node, child, parent)
            else:
                colour[node] = _BLACK
                stack.pop()
    return None


def is_acyclic(graph: DiGraph) -> bool:
    """Return whether ``graph`` has no directed cycle."""
    return find_cycle(graph) is None


def sorted_succ(graph: DiGraph, node: Node) -> list[Node]:
    """Successors of ``node`` in a deterministic order (for stable output)."""
    try:
        return sorted(graph.successors(node), key=repr, reverse=True)
    except TypeError:  # pragma: no cover - unorderable reprs never occur here
        return list(graph.successors(node))


def _extract_cycle(node: Node, child: Node, parent: dict[Node, Node]) -> list[Node]:
    """Rebuild the cycle closed by the back edge ``node -> child``."""
    path = [node]
    while path[-1] != child:
        path.append(parent[path[-1]])
    path.reverse()
    path.append(child)
    return path
