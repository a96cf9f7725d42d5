"""Unit tests for cycle detection and reachability."""

from repro.graphs.cycles import find_cycle, is_acyclic
from repro.graphs.digraph import DiGraph


class TestFindCycle:
    def test_empty_graph_is_acyclic(self):
        assert find_cycle(DiGraph()) is None
        assert is_acyclic(DiGraph())

    def test_dag_is_acyclic(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert is_acyclic(g)

    def test_two_cycle_found(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a")])
        cycle = find_cycle(g)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_cycle_is_a_walk_along_edges(self):
        g = DiGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("a", "d")]
        )
        cycle = find_cycle(g)
        assert cycle is not None
        for src, dst in zip(cycle, cycle[1:]):
            assert g.has_edge(src, dst)

    def test_self_loop_is_a_cycle(self):
        g = DiGraph()
        g.add_edge("a", "a")
        assert find_cycle(g) == ["a", "a"]

    def test_cycle_in_disconnected_component_found(self):
        g = DiGraph.from_edges(
            [("a", "b"), ("x", "y"), ("y", "z"), ("z", "x")]
        )
        cycle = find_cycle(g)
        assert cycle is not None
        assert set(cycle) <= {"x", "y", "z"}

    def test_long_path_does_not_recurse(self):
        # Iterative DFS: depth beyond the default recursion limit is fine.
        g = DiGraph()
        for i in range(5000):
            g.add_edge(i, i + 1)
        assert is_acyclic(g)
        g.add_edge(5000, 0)
        assert not is_acyclic(g)
