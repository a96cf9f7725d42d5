"""Classical serialization graph testing (SGT) [Bad79, Cas81].

The optimistic baseline: maintain the transaction-level serialization
graph over every granted operation; grant a request iff the conflict
edges it introduces keep the graph acyclic, otherwise abort the requester.
Committed transactions' nodes and operations are retained (a committed
transaction can still be the middle of a cycle with two live ones), which
is the textbook-correct, garbage-collection-free formulation — fine for
bounded simulations.

SGT certifies conflict serializability; the test suite asserts that every
final committed history it produces passes the offline test.
"""

from __future__ import annotations

from repro.core.operations import Operation
from repro.core.schedules import conflicts
from repro.core.transactions import Transaction
from repro.graphs.cycles import find_cycle
from repro.graphs.digraph import DiGraph
from repro.obs.events import Reason
from repro.protocols.base import Outcome, Scheduler

__all__ = ["SGTScheduler"]


class SGTScheduler(Scheduler):
    """Serialization graph testing: abort whichever request closes a cycle."""

    name = "sgt"

    def __init__(self) -> None:
        super().__init__()
        self._graph = DiGraph()

    def _on_admit(self, transaction: Transaction) -> None:
        self._graph.add_node(transaction.tx_id)

    def _decide(self, op: Operation) -> Outcome:
        new_edges = [
            (earlier.tx, op.tx)
            for earlier in self._history
            if earlier.tx != op.tx and conflicts(earlier, op)
        ]
        candidate = self._graph.copy()
        for source, target in new_edges:
            candidate.add_edge(source, target)
        cycle = find_cycle(candidate)
        if cycle is not None:
            nodes = list(cycle)
            if nodes and nodes[0] != nodes[-1]:
                nodes.append(nodes[0])
            return Outcome.abort(
                op.tx,
                reason=Reason(
                    "sg-cycle",
                    blockers=tuple(sorted(set(cycle))),
                    cycle=tuple((f"T{node}", "") for node in nodes),
                ),
            )
        self._graph = candidate
        return Outcome.grant()

    def _on_remove(self, tx_id: int) -> None:
        # Drop the victim's node (and its edges); re-add it bare so the
        # restarted incarnation starts clean.
        self._graph.remove_node(tx_id)
        self._graph.add_node(tx_id)

    def _on_discard(self, tx_id: int) -> None:
        self._graph.remove_node(tx_id)
