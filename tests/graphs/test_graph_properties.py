"""Hypothesis property tests for the graph substrate."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graphs.cycles import find_cycle, is_acyclic
from repro.graphs.digraph import DiGraph
from repro.graphs.toposort import topological_sort

NODES = list(range(8))


@st.composite
def graphs(draw):
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=20,
        )
    )
    g = DiGraph()
    for node in draw(st.lists(st.sampled_from(NODES), max_size=8)):
        g.add_node(node)
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


@st.composite
def dags(draw):
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=20,
        )
    )
    g = DiGraph()
    for node in NODES:
        g.add_node(node)
    for src, dst in edges:
        if src < dst:  # edges point forward: guaranteed acyclic
            g.add_edge(src, dst)
    return g


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_find_cycle_returns_real_cycles(g):
    cycle = find_cycle(g)
    if cycle is None:
        # No cycle claimed: a topological sort must exist.
        order = topological_sort(g)
        position = {node: i for i, node in enumerate(order)}
        assert all(position[a] < position[b] for a, b in g.edges())
    else:
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 2
        for a, b in zip(cycle, cycle[1:]):
            assert g.has_edge(a, b)


@given(dags())
@settings(max_examples=100, deadline=None)
def test_dags_are_acyclic_and_sortable(g):
    assert is_acyclic(g)
    order = topological_sort(g, key=lambda n: n)
    assert len(order) == g.node_count
    position = {node: i for i, node in enumerate(order)}
    assert all(position[a] < position[b] for a, b in g.edges())
