"""Strict two-phase locking with waits-for deadlock detection.

The commercial baseline: a transaction takes a shared lock before each
read and an exclusive lock before each write, holds everything until
commit, and waits when blocked.  A waits-for cycle aborts the requester
(the transaction whose request closed the cycle).

Strict 2PL certifies conflict serializability, so any final committed
history it produces must pass
:func:`repro.core.serializability.is_conflict_serializable` — the test
suite asserts exactly that over many simulated runs.
"""

from __future__ import annotations

from repro.core.operations import Operation
from repro.graphs.digraph import DiGraph
from repro.obs.events import Reason
from repro.protocols.base import Outcome, Scheduler
from repro.protocols.locks import LockMode, LockTable

__all__ = ["TwoPhaseLockingScheduler"]


class TwoPhaseLockingScheduler(Scheduler):
    """Strict 2PL: lock per operation, hold to commit, abort on deadlock."""

    name = "strict-2pl"

    def __init__(self) -> None:
        super().__init__()
        self._locks = LockTable()
        self._waiting_on: dict[int, set[int]] = {}

    def _decide(self, op: Operation) -> Outcome:
        mode = LockMode.SHARED if op.is_read else LockMode.EXCLUSIVE
        blockers = self._locks.blockers(op.obj, op.tx, mode)
        if not blockers:
            self._waiting_on.pop(op.tx, None)
            self._locks.acquire(op.obj, op.tx, mode)
            return Outcome.grant()
        self._waiting_on[op.tx] = blockers
        victims = self._deadlocked(op.tx)
        if victims:
            return Outcome.abort(
                *victims,
                reason=Reason(
                    "deadlock",
                    blockers=tuple(sorted(blockers)),
                    detail=f"waits-for cycle through T{op.tx}",
                ),
            )
        return Outcome.wait(
            Reason("lock-conflict", blockers=tuple(sorted(blockers)))
        )

    def _deadlocked(self, requester: int) -> tuple[int, ...]:
        """Abort the requester when its wait edge closes a cycle."""
        graph = DiGraph()
        for waiter, blockers in self._waiting_on.items():
            for blocker in blockers:
                # Entries recorded on earlier ticks may point at since-
                # committed transactions; those edges are stale.
                if not self.is_committed(blocker):
                    graph.add_edge(waiter, blocker)
        seen: set[int] = set()
        frontier = list(self._waiting_on.get(requester, ()))
        while frontier:
            node = frontier.pop()
            if node == requester:
                return (requester,)
            if node in seen or node not in graph:
                continue
            seen.add(node)
            frontier.extend(graph.successors(node))
        return ()

    def _on_finish(self, tx_id: int) -> None:
        self._locks.release_all(tx_id)
        self._waiting_on.pop(tx_id, None)

    def _on_remove(self, tx_id: int) -> None:
        self._locks.release_all(tx_id)
        self._waiting_on.pop(tx_id, None)

    def _on_discard(self, tx_id: int) -> None:
        # Waiters parked behind the discarded transaction keep their
        # entries until they retry; it must not stay one of their
        # blockers, or deadlock detection would ask about a transaction
        # that is no longer admitted.
        for blockers in self._waiting_on.values():
            blockers.discard(tx_id)
