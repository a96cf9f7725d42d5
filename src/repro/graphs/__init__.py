"""Directed-graph substrate used throughout the library.

The paper's central tool is a directed graph (the relative serialization
graph) whose acyclicity must be tested; the classical serialization graph
and the protocols' waits-for graphs are digraphs too.  This subpackage
provides a small, dependency-free digraph implementation with exactly the
algorithms the rest of the library needs:

* :class:`~repro.graphs.digraph.DiGraph` — adjacency-set digraph with
  labelled edges,
* :func:`~repro.graphs.cycles.find_cycle` /
  :func:`~repro.graphs.cycles.is_acyclic` — iterative DFS cycle detection,
* :func:`~repro.graphs.toposort.topological_sort` — deterministic Kahn
  topological sort with a caller-supplied tie-break,
* :class:`~repro.graphs.incremental.FlatPkGraph` — online cycle
  detection via Pearce–Kelly incremental topological ordering over
  integer node ids (the engine under
  :class:`~repro.core.rsg.IncrementalRsg`),
* :func:`~repro.graphs.nx.to_networkx` — optional bridge to networkx.
"""

from repro.graphs.cycles import find_cycle, is_acyclic
from repro.graphs.digraph import DiGraph
from repro.graphs.incremental import FlatBatch, FlatPkGraph
from repro.graphs.toposort import topological_sort

__all__ = [
    "DiGraph",
    "FlatBatch",
    "FlatPkGraph",
    "find_cycle",
    "is_acyclic",
    "topological_sort",
]
