"""Unit tests for topological sorting."""

import pytest

from repro.errors import CycleError
from repro.graphs.digraph import DiGraph
from repro.graphs.toposort import topological_sort


def _is_topological(graph: DiGraph, order: list) -> bool:
    position = {node: i for i, node in enumerate(order)}
    return all(position[a] < position[b] for a, b in graph.edges())


class TestTopologicalSort:
    def test_respects_edges(self):
        g = DiGraph.from_edges(
            [("a", "b"), ("b", "c"), ("a", "c"), ("d", "c")]
        )
        order = topological_sort(g)
        assert _is_topological(g, order)
        assert len(order) == 4

    def test_key_breaks_ties(self):
        g = DiGraph()
        for node in ["c", "a", "b"]:
            g.add_node(node)
        assert topological_sort(g, key=lambda n: n) == ["a", "b", "c"]
        assert topological_sort(g, key=lambda n: {"a": 3, "b": 2, "c": 1}[n]) == [
            "c",
            "b",
            "a",
        ]

    def test_unorderable_nodes_are_fine(self):
        # Equal keys must not force node comparison.
        g = DiGraph()
        g.add_node(object())
        g.add_node(object())
        assert len(topological_sort(g, key=lambda _n: 0)) == 2

    def test_cycle_raises(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            topological_sort(g)

    def test_empty_graph(self):
        assert topological_sort(DiGraph()) == []
