"""The ``depends-on`` relation (Section 2 of the paper).

``o2`` *directly depends on* ``o1`` in a schedule ``S`` if ``o1`` precedes
``o2`` in ``S`` and either both belong to the same transaction or they
conflict.  ``depends on`` is the transitive closure of that relation.

Figure 2 of the paper shows why the closure matters: ``w2[y]`` affects
``r1[z]`` through ``T3`` (``w2[y] -> r3[y] -> w3[z] -> r1[z]``) even though
the two never conflict directly, so a correctness test built on direct
conflicts alone would wrongly accept the schedule ``S1``.

The closure is computed with integer bitsets over schedule positions: one
reverse sweep over the schedule that ORs the closed rows of a small
*covering set* of direct successors per operation (see :func:`_closure`),
so building it costs O(n) big-int ORs rather than O(n^2) pair tests.
The direct relation (``transitive=False``) keeps the pair loop.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.operations import OpType, Operation
from repro.core.schedules import Schedule
from repro.graphs.digraph import DiGraph

__all__ = ["DependencyRelation"]


class DependencyRelation:
    """The ``depends-on`` relation of one schedule.

    Args:
        schedule: the schedule to analyze.
        transitive: when ``True`` (the paper's definition) the relation is
            the transitive closure of direct dependencies; ``False`` keeps
            only *direct* dependencies.  The ablation experiment (E2)
            uses ``False`` to demonstrate Figure 2's point that direct
            conflicts are not sufficient.
    """

    def __init__(self, schedule: Schedule, transitive: bool = True) -> None:
        self._schedule = schedule
        self._transitive = transitive
        ops = schedule.operations
        n = len(ops)
        txs = [0] * n
        objs = [""] * n
        writes = [False] * n
        for p, op in enumerate(ops):
            txs[p] = op.tx
            objs[p] = op.obj
            writes[p] = op.op_type is OpType.WRITE
        # _reach[p] has bit q set iff ops[q] depends on ops[p] (p < q).
        build = _closure if transitive else _direct
        self._reach = build(txs, objs, writes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The schedule this relation was computed from."""
        return self._schedule

    @property
    def transitive(self) -> bool:
        """Whether this is the full (transitively closed) relation."""
        return self._transitive

    def depends_on(self, later: Operation, earlier: Operation) -> bool:
        """Whether ``later`` depends on ``earlier`` (paper's direction).

        Always ``False`` when ``earlier`` does not precede ``later`` in the
        schedule (dependency follows schedule order by construction).
        """
        p = self._schedule.position(earlier)
        q = self._schedule.position(later)
        if p >= q:
            return False
        return bool(self._reach[p] & (1 << q))

    def related(self, first: Operation, second: Operation) -> bool:
        """Whether a dependency exists in either direction."""
        return self.depends_on(first, second) or self.depends_on(second, first)

    def dependents_bits(self, position: int) -> int:
        """The raw dependents row: bit ``q`` is set iff the operation at
        schedule position ``q`` depends on the one at ``position``.

        This is the zero-copy interface the RSG arc builder iterates
        with low-bit extraction; everything else should prefer the
        operation-level queries.
        """
        return self._reach[position]

    def dependents_of(self, op: Operation) -> list[Operation]:
        """Every operation that depends on ``op``, in schedule order.

        Set bits are visited directly via low-bit extraction
        (``bits & -bits``) instead of shifting one position at a time,
        so sparse rows cost O(popcount) instead of O(n) big-int shifts.
        """
        ops = self._schedule.operations
        bits = self._reach[self._schedule.position(op)]
        result: list[Operation] = []
        while bits:
            low = bits & -bits
            result.append(ops[low.bit_length() - 1])
            bits ^= low
        return result

    def dependencies_of(self, op: Operation) -> list[Operation]:
        """Every operation that ``op`` depends on, in schedule order."""
        q = self._schedule.position(op)
        mask = 1 << q
        ops = self._schedule.operations
        return [ops[p] for p in range(q) if self._reach[p] & mask]

    def cross_transaction_pairs(self) -> Iterator[tuple[Operation, Operation]]:
        """Yield every pair ``(earlier, later)`` with ``later`` depending on
        ``earlier`` and the two in *different* transactions.

        These are exactly the D-arcs of the relative serialization graph
        (Definition 3, item 2).
        """
        ops = self._schedule.operations
        for p, earlier in enumerate(ops):
            bits = self._reach[p]
            tx = earlier.tx
            while bits:
                low = bits & -bits
                later = ops[low.bit_length() - 1]
                if later.tx != tx:
                    yield earlier, later
                bits ^= low

    def as_graph(self) -> DiGraph:
        """The relation as a digraph (edge ``a -> b`` iff ``b`` depends on
        ``a``), for inspection and DOT export."""
        graph = DiGraph()
        for op in self._schedule.operations:
            graph.add_node(op)
        for earlier, later in self.pairs():
            graph.add_edge(earlier, later)
        return graph

    def pairs(self) -> Iterator[tuple[Operation, Operation]]:
        """Yield every dependent pair ``(earlier, later)``, including
        same-transaction program-order pairs."""
        ops = self._schedule.operations
        for p, earlier in enumerate(ops):
            bits = self._reach[p]
            while bits:
                low = bits & -bits
                yield earlier, ops[low.bit_length() - 1]
                bits ^= low

    def __repr__(self) -> str:
        kind = "transitive" if self._transitive else "direct"
        return f"DependencyRelation({kind}, over {len(self._schedule)} ops)"


def _closure(txs: list[int], objs: list[str], writes: list[bool]) -> list[int]:
    """The transitive ``depends-on`` rows, in one reverse sweep.

    Every direct dependent of position ``p`` depends on (or is) one of a
    *covering set*: the next operation of ``p``'s transaction, the next
    write to ``p``'s object, and — for a write — the reads of the object
    before that next write.  (A later operation of the transaction
    depends on the next one by program order; a later write or a read
    past the next write conflicts with the next write.)  So
    ``reach[p]`` is the OR of ``(1 << q) | reach[q]`` over that set.
    The trackers hold those closed rows directly, the reads already
    OR-ed into one row per object (the mirror image of
    :class:`~repro.core.rsg.IncrementalRsg`'s forward trackers), so each
    position costs at most four big-int ORs instead of O(n) pair tests.
    """
    n = len(txs)
    reach = [0] * n
    next_of_tx: dict[int, int] = {}
    next_write: dict[str, int] = {}
    reads_before_write: dict[str, int] = {}
    for p in range(n - 1, -1, -1):
        tx = txs[p]
        obj = objs[p]
        bits = next_of_tx.get(tx, 0) | next_write.get(obj, 0)
        if writes[p]:
            bits |= reads_before_write.get(obj, 0)
        reach[p] = bits
        closed = bits | (1 << p)
        next_of_tx[tx] = closed
        if writes[p]:
            next_write[obj] = closed
            reads_before_write[obj] = 0
        else:
            reads_before_write[obj] = reads_before_write.get(obj, 0) | closed
    return reach


def _direct(txs: list[int], objs: list[str], writes: list[bool]) -> list[int]:
    """The *direct* dependency rows (Figure 2's unsound ablation): every
    later operation of the same transaction or conflicting on the same
    object, with no closure."""
    n = len(txs)
    reach = [0] * n
    for p in range(n):
        ptx = txs[p]
        pobj = objs[p]
        pwrite = writes[p]
        bits = 0
        for q in range(p + 1, n):
            if txs[q] == ptx or (objs[q] == pobj and (pwrite or writes[q])):
                bits |= 1 << q
        reach[p] = bits
    return reach
