"""The Relative Serialization Graph (Definition 3) and Theorem 1.

``RSG(S) = (V, E)`` has the schedule's operations as vertices and four
kinds of arcs:

* **I-arcs** — program order between consecutive operations of the same
  transaction,
* **D-arcs** — ``o -> o'`` whenever ``o'`` depends on ``o`` and the two
  belong to different transactions (these subsume conflicts),
* **F-arcs** (*push forward*) — for each D-arc ``o -> o'`` with ``o`` in
  ``Ti`` and ``o'`` in ``Tk``: ``PushForward(o, Tk) -> o'``, pushing ``o'``
  after the *last* operation of ``o``'s atomic unit relative to ``Tk``,
* **B-arcs** (*pull backward*) — for each D-arc ``o -> o'`` with ``o`` in
  ``Tk`` and ``o'`` in ``Ti``: ``o -> PullBackward(o', Tk)``, pulling
  ``o'``'s whole unit (relative to ``Tk``) after ``o``.

Theorem 1: ``S`` is relatively serializable **iff** ``RSG(S)`` is acyclic.
Both directions are executable here — :attr:`RelativeSerializationGraph.
is_acyclic` for the test, and :meth:`RelativeSerializationGraph.
equivalent_relatively_serial_schedule` for the constructive half (a
topological sort of an acyclic RSG is conflict-equivalent to the input and
relatively serial).

The offline graph lives in integer id-space from start to finish: the
depends-on rows are bitsets over schedule positions, the arcs are
``src * |V| + dst`` keys with an :class:`ArcKind` bitmask, and both the
cycle search and the witness sort walk plain int successor lists.  The
labelled :class:`~repro.graphs.digraph.DiGraph` (``graph``, ``arcs()``,
``arc_kinds()``) is built only when a diagnostic asks for it.  Building
costs one covering-set sweep for the closure, plus, per position, a visit
to only the transactions that occur in its dependents row; what stays
quadratic is the arc set itself, which grows with the number of
dependent pairs.

The ``include_*`` switches exist for the ablation experiments: Lynch and
Farrag–Özsu used push-forward only (no B-arcs), and Figure 2 of the paper
shows direct conflicts without transitive closure are unsound; both
weakened variants can be constructed and measured.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Sequence

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.dependency import DependencyRelation
from repro.core.operations import OpType, Operation
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.errors import CycleError, GraphError, InvalidSpecError
from repro.graphs.digraph import DiGraph
from repro.graphs.incremental import FlatBatch, FlatPkGraph

__all__ = [
    "ArcKind",
    "IncrementalRsg",
    "RelativeSerializationGraph",
    "is_relatively_serializable",
]


class _Unset:
    """Sentinel type for "cycle not computed yet" (a proper sentinel
    instead of overloading ``False``, which type checkers conflate with
    ``bool`` and readers conflate with "acyclic")."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<cycle unset>"


_UNSET = _Unset()


class ArcKind(enum.Enum):
    """The four arc families of Definition 3."""

    INTERNAL = "I"
    DEPENDENCY = "D"
    PUSH_FORWARD = "F"
    PULL_BACKWARD = "B"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


# Id-space label encoding for the arc-mask representation.
_I_BIT, _D_BIT, _F_BIT, _B_BIT = 1, 2, 4, 8
_BIT_KINDS = (
    (_I_BIT, ArcKind.INTERNAL),
    (_D_BIT, ArcKind.DEPENDENCY),
    (_F_BIT, ArcKind.PUSH_FORWARD),
    (_B_BIT, ArcKind.PULL_BACKWARD),
)


class RelativeSerializationGraph:
    """``RSG(S)`` for a schedule ``S`` under a relative atomicity spec.

    Args:
        schedule: the schedule ``S``.
        spec: the relative atomicity specification for ``S``'s
            transactions.
        include_f_arcs: include push-forward arcs (Definition 3, item 3).
        include_b_arcs: include pull-backward arcs (Definition 3, item 4).
            Disabling reproduces the Lynch / Farrag–Özsu style graph for
            the ablation experiment.
        transitive_dependencies: use the paper's transitively closed
            ``depends-on`` (``True``) or direct dependencies only
            (``False``, the unsound Figure 2 variant).
    """

    def __init__(
        self,
        schedule: Schedule,
        spec: RelativeAtomicitySpec,
        include_f_arcs: bool = True,
        include_b_arcs: bool = True,
        transitive_dependencies: bool = True,
    ) -> None:
        _check_spec_matches(schedule, spec)
        self._schedule = schedule
        self._spec = spec
        self._dependency = DependencyRelation(
            schedule, transitive=transitive_dependencies
        )
        self._ops_table, self._id_at, self._arc_masks = self._build_arcs(
            include_f_arcs, include_b_arcs
        )
        self._succ: list[list[int]] | None = None
        self._graph_cache: DiGraph | None = None
        self._cycle: list[Operation] | None | _Unset = _UNSET

    def _build_arcs(
        self, include_f_arcs: bool, include_b_arcs: bool
    ) -> tuple[list[Operation], list[int], dict[int, int]]:
        """Compute the arc set in integer id-space.

        Every operation of every transaction gets a dense integer id
        (``ops_table`` is the inverse map, and ``id_at[p]`` is the id of
        the operation at schedule position ``p``); an arc ``src -> dst``
        is the key ``src_id * len(ops_table) + dst_id`` in ``arc_masks``,
        whose value ORs one bit per :class:`ArcKind` the arc carries.
        Working on ints instead of :class:`Operation` objects removes
        object hashing from the O(n^2)-pair hot loop, and the mask dict
        dedups the (heavily colliding) D/F/B triples before any graph
        exists — the :class:`DiGraph` view is materialized lazily from
        this.
        """
        transactions = self._schedule.transactions
        ops_table: list[Operation] = []
        tx_base: dict[int, int] = {}
        for tx_id in sorted(transactions):
            tx_base[tx_id] = len(ops_table)
            ops_table.extend(transactions[tx_id].operations)
        total = len(ops_table)
        masks: dict[int, int] = {}
        # I-arcs: consecutive operations of each transaction.
        for tx_id, transaction in transactions.items():
            base = tx_base[tx_id]
            for offset in range(len(transaction) - 1):
                masks[(base + offset) * total + base + offset + 1] = _I_BIT
        # Schedule-position lookups (no Operation hashing below here).
        ops = self._schedule.operations
        n = len(ops)
        ids = [0] * n
        stx = [0] * n
        sidx = [0] * n
        txmask: dict[int, int] = dict.fromkeys(transactions, 0)
        for p, op in enumerate(ops):
            ids[p] = tx_base[op.tx] + op.index
            stx[p] = op.tx
            sidx[p] = op.index
            txmask[op.tx] |= 1 << p
        # A transaction's rank is its place in ``txmask``; observers are
        # visited in rank order so the arc insertion order (and with it
        # the cycle witness) does not depend on how they were found.
        rank = {tx_id: r for r, tx_id in enumerate(txmask)}
        # D-arcs plus their induced F- and B-arcs, one observing
        # transaction at a time: all dependents of position p inside
        # transaction j share the same PushForward source and the same
        # PullBackward row, so both resolve once per (p, j).  Only the
        # transactions that occur in p's dependents row are visited:
        # they are peeled off the row from its highest set bit (a free
        # bit_length, no big-int negation), one transaction mask each.
        spec = self._spec
        dependency = self._dependency
        push_rows: dict[tuple[int, int], list[int]] = {}
        pull_rows: dict[tuple[int, int], list[int]] = {}
        get = masks.get
        for p in range(n):
            bits = dependency.dependents_bits(p)
            if not bits:
                continue
            ptx = stx[p]
            bits &= ~txmask[ptx]
            observers: list[tuple[int, int, int]] = []
            while bits:
                j = stx[bits.bit_length() - 1]
                deps = bits & txmask[j]
                bits ^= deps
                observers.append((rank[j], j, deps))
            observers.sort()
            pkey = ids[p] * total
            for _, j, deps in observers:
                if include_f_arcs:
                    row = push_rows.get((ptx, j))
                    if row is None:
                        base = tx_base[ptx]
                        row = push_rows[(ptx, j)] = _push_row(
                            spec, ptx, j,
                            range(base, base + len(transactions[ptx])),
                        )
                    fkey = row[sidx[p]] * total
                if include_b_arcs:
                    brow = pull_rows.get((j, ptx))
                    if brow is None:
                        base = tx_base[j]
                        brow = pull_rows[(j, ptx)] = _pull_row(
                            spec, j, ptx,
                            range(base, base + len(transactions[j])),
                        )
                while deps:
                    low = deps & -deps
                    deps ^= low
                    q = low.bit_length() - 1
                    qid = ids[q]
                    key = pkey + qid
                    masks[key] = get(key, 0) | _D_BIT
                    if include_f_arcs:
                        key = fkey + qid
                        masks[key] = get(key, 0) | _F_BIT
                    if include_b_arcs:
                        key = pkey + brow[sidx[q]]
                        masks[key] = get(key, 0) | _B_BIT
        return ops_table, ids, masks

    def _build_graph(self) -> DiGraph:
        """Expand the id-space arc masks into the labelled DiGraph."""
        graph = DiGraph()
        for op in self._schedule.operations:
            graph.add_node(op)
        table = self._ops_table
        total = len(table)
        arcs: list[tuple[Operation, Operation, ArcKind]] = []
        for key, mask in self._arc_masks.items():
            src = table[key // total]
            dst = table[key % total]
            for bit, kind in _BIT_KINDS:
                if mask & bit:
                    arcs.append((src, dst, kind))
        graph.add_labelled_edges(arcs)
        return graph

    def _successors(self) -> list[list[int]]:
        """Successor lists over the id-space arc set, built once per RSG
        and shared by the cycle search and the witness sort.  Each list
        follows ``_arc_masks`` insertion order (no duplicates: one key
        per arc)."""
        if self._succ is None:
            total = len(self._ops_table)
            succ: list[list[int]] = [[] for _ in range(total)]
            for key in self._arc_masks:
                src, dst = divmod(key, total)
                succ[src].append(dst)
            self._succ = succ
        return self._succ

    def _cycle_from_masks(self) -> list[Operation] | None:
        """Three-colour DFS directly over the id-space arc set.

        Each node's successors are visited last-inserted first, through
        a per-node cursor, so the shared successor lists stay intact.
        """
        table = self._ops_table
        total = len(table)
        succ = self._successors()
        cursor = [len(targets) for targets in succ]
        colour = [0] * total  # 0 white, 1 grey, 2 black
        parent = [0] * total
        for root in range(total):
            if colour[root]:
                continue
            colour[root] = 1
            stack = [root]
            while stack:
                node = stack[-1]
                pending = cursor[node]
                if pending:
                    pending -= 1
                    cursor[node] = pending
                    child = succ[node][pending]
                    c = colour[child]
                    if c == 0:
                        colour[child] = 1
                        parent[child] = node
                        stack.append(child)
                    elif c == 1:
                        path = [node]
                        while path[-1] != child:
                            path.append(parent[path[-1]])
                        path.reverse()
                        path.append(child)
                        return [table[i] for i in path]
                else:
                    colour[node] = 2
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The schedule the graph was built from."""
        return self._schedule

    @property
    def spec(self) -> RelativeAtomicitySpec:
        """The relative atomicity specification used."""
        return self._spec

    @property
    def dependency(self) -> DependencyRelation:
        """The ``depends-on`` relation the D-arcs were derived from."""
        return self._dependency

    @property
    def graph(self) -> DiGraph:
        """The underlying digraph (arcs labelled with :class:`ArcKind`).

        Materialized lazily on first access; the pure acyclicity test
        (:attr:`is_acyclic`) never needs it.
        """
        if self._graph_cache is None:
            self._graph_cache = self._build_graph()
        return self._graph_cache

    @property
    def is_acyclic(self) -> bool:
        """Theorem 1's test: whether ``RSG(S)`` has no directed cycle."""
        return self.cycle is None

    @property
    def cycle(self) -> list[Operation] | None:
        """A witness cycle, or ``None`` when the graph is acyclic.

        Always found over the id-space arc set, so the witness does not
        depend on whether :attr:`graph` was materialized first.
        """
        if self._cycle is _UNSET:
            self._cycle = self._cycle_from_masks()
        return self._cycle

    def arcs(self, kind: ArcKind | None = None) -> list[tuple[Operation, Operation]]:
        """All arcs, optionally restricted to one :class:`ArcKind`.

        An arc carrying several labels (e.g. both D and B, as in Figure 3)
        is reported under each of its kinds.
        """
        result: list[tuple[Operation, Operation]] = []
        for source, target, labels in self.graph.labelled_edges():
            if kind is None or kind in labels:
                result.append((source, target))
        return result

    def arc_kinds(self, source: Operation, target: Operation) -> frozenset[ArcKind]:
        """The set of kinds attached to the arc ``source -> target``."""
        return frozenset(self.graph.edge_labels(source, target))

    # ------------------------------------------------------------------
    # Theorem 1, constructive direction
    # ------------------------------------------------------------------
    def equivalent_relatively_serial_schedule(self) -> Schedule:
        """Extract a relatively serial schedule conflict-equivalent to ``S``.

        Topologically sorts the (acyclic) RSG, breaking ties by the
        operation's position in the original schedule so the result stays
        as close to ``S`` as the arcs allow.  Kahn's algorithm runs
        directly over the id-space successor lists with a heap of
        schedule positions; the labelled :attr:`graph` is never built.
        Positions are unique and the emitted set is always closed under
        predecessors, so the order depends on the arc set alone: it is
        the one :func:`~repro.graphs.toposort.topological_sort` gives on
        :attr:`graph` with ``key=schedule.position``.

        Raises:
            CycleError: when the RSG is cyclic (``S`` is not relatively
                serializable), carrying the witness cycle.
            InvalidScheduleError: when ``S`` is a prefix that leaves an
                operation carrying an arc unscheduled.
        """
        witness = self.cycle
        if witness is not None:
            raise CycleError(
                "RSG is cyclic; schedule is not relatively serializable",
                cycle=witness,
            )
        table = self._ops_table
        succ = self._successors()
        indegree = [0] * len(table)
        for targets in succ:
            for dst in targets:
                indegree[dst] += 1
        id_at = self._id_at
        position_of = [-1] * len(table)
        for p, i in enumerate(id_at):
            position_of[i] = p
        if len(id_at) != len(table):
            # A prefix: an unscheduled operation that carries an arc has
            # no position to sort by.
            for i, p in enumerate(position_of):
                if p < 0 and (succ[i] or indegree[i]):
                    self._schedule.position(table[i])  # raises
        ops = self._schedule.operations
        # Ascending positions already form a heap.
        ready = [p for p, i in enumerate(id_at) if not indegree[i]]
        order: list[Operation] = []
        while ready:
            p = heapq.heappop(ready)
            order.append(ops[p])
            for dst in succ[id_at[p]]:
                left = indegree[dst] - 1
                indegree[dst] = left
                if not left:
                    heapq.heappush(ready, position_of[dst])
        return self._schedule.reordered(order)

    def __repr__(self) -> str:
        return (
            f"RSG(|V|={self.graph.node_count}, |E|={self.graph.edge_count}, "
            f"{'acyclic' if self.is_acyclic else 'cyclic'})"
        )


def _push_row(
    spec: RelativeAtomicitySpec,
    tx_id: int,
    observer: int,
    ids: Sequence[int],
) -> list[int]:
    """``PushForward(op, observer)`` for every operation of ``tx_id``,
    as a row indexed by operation index; ``ids[i]`` is the id the
    caller gives the transaction's ``i``-th operation."""
    row: list[int] = []
    for unit in spec.atomicity(tx_id, observer).units:
        row.extend([ids[unit.end]] * unit.size)
    return row


def _pull_row(
    spec: RelativeAtomicitySpec,
    tx_id: int,
    observer: int,
    ids: Sequence[int],
) -> list[int]:
    """``PullBackward(op, observer)`` for every operation of ``tx_id``,
    in the same id space as :func:`_push_row`."""
    row: list[int] = []
    for unit in spec.atomicity(tx_id, observer).units:
        row.extend([ids[unit.start]] * unit.size)
    return row


class IncrementalRsg:
    """The RSG over a granted prefix, maintained operation by operation.

    This is the engine under the online certifier
    (:class:`~repro.protocols.certifier.RsgCertifier`): a stack of
    granted operations with

    * ``try_push`` — append one operation, deriving its D/F/B arcs from
      per-object trackers (O(#new-arcs), not O(history)) and inserting
      them into a :class:`~repro.graphs.incremental.FlatPkGraph` — an
      integer-id adjacency structure with bitmask arc kinds — that
      keeps an online topological order.  A cycle-closing push is
      refused with the graph left untouched.
    * ``push_uncertified`` — append an operation *without* inserting
      its arcs, for feeds that keep walking extensions of a prefix
      already known to be cyclic (arcs only accumulate, so every
      extension stays cyclic).
    * ``pop`` — undo the latest push in O(#its-arcs): edge removal can
      never invalidate a topological order, so no restoration pass.

    Offline analysis does not use this engine: it builds
    :class:`RelativeSerializationGraph` from scratch per schedule.

    Internally everything lives in flat, integer-indexed state: every
    declared operation owns a node id in a :class:`FlatPkGraph`
    (freelisted and reused across :meth:`remove_transaction`), arcs are
    ``(u, v, kind-bit)`` triples written into one reusable flat buffer,
    undo batches and push records are recycled through freelists, and
    the labelled :class:`~repro.graphs.digraph.DiGraph` view the
    diagnostics need is materialized on demand and cached per mutation
    epoch.  In the steady state a certify/forget cycle therefore
    allocates almost nothing.
    """

    def __init__(self, spec: RelativeAtomicitySpec) -> None:
        self._spec = spec
        self._flat = FlatPkGraph()
        # Node-id space: _ids[tx_id][index] is the flat node id of that
        # operation; _ops_of is the inverse (slot per node id, nulled
        # and overwritten as ids are released and reused).
        self._ids: dict[int, list[int]] = {}
        self._tx_order: list[int] = []
        self._ops_of: list[Operation | None] = []
        self._history: list[Operation] = []
        # _hist_ids[n] is the flat node id of history[n].
        self._hist_ids: list[int] = []
        # _closed[n] has bit p set iff history[n] depends on history[p]
        # OR p == n — the self-inclusive ancestor closure.  Storing it
        # closed means a new operation's ancestors are a plain OR of
        # the covering set's rows, with no per-member ``1 << p`` big-int
        # shifts on the hot path.  Rows pushed while the prefix is
        # cyclic are sentinel zeros: try_push raises on a cyclic prefix
        # and pops are LIFO, so a zero row is gone before anything can
        # read it (see push_uncertified).
        self._closed: list[int] = []
        # Per-push undo log: one (batch, prev_tx_pos, write_undo)
        # triple per push — the arc undo batch (None for uncertified
        # pushes), the tx's previous history position, and the
        # write-tracker undo pair.  A single list of tuples, not three
        # parallel lists: one append per push on the hot path.
        self._log: list[tuple] = []
        # Prebound appends for the per-push hot path (the four lists
        # are created here and never rebound — same trick as the trace
        # bus's prebound sink writes).
        self._hist_append = self._history.append
        self._hist_ids_append = self._hist_ids.append
        self._closed_append = self._closed.append
        self._log_append = self._log.append
        self._batch_pool: list[FlatBatch] = []
        self._arc_buf: list[int] = []
        # Per-object trackers: the covering set of direct dependencies.
        # A new operation's ancestors are exactly the union of
        # (position | anc[position]) over: the transaction's previous
        # operation, the object's last write, and (for writes) the
        # reads since that write — every other direct dependency is
        # already inside one of those closures.
        self._last_write: dict[str, int] = {}
        self._reads_since_write: dict[str, list[int]] = {}
        self._last_of_tx: dict[int, int] = {}
        # PushForward/PullBackward rows in node-id space, keyed
        # [subject tx][observer tx]; dropped when either tx is removed.
        self._push_rows: dict[int, dict[int, list[int]]] = {}
        self._pull_rows: dict[int, dict[int, list[int]]] = {}
        self._uncertified_from: int | None = None
        #: Whether the maintained prefix RSG is acyclic (always true
        #: until the first ``push_uncertified``).  A plain attribute
        #: mirroring ``_uncertified_from is None``, not a property: the
        #: certification loop reads it once per operation and the
        #: attribute read skips the descriptor call frame.
        self.acyclic: bool = True
        self._rejection: list[Operation] | None = None
        self._rejection_ids: list[int] | None = None
        # Tentative arc triples of the most recent refused try_push:
        # they were rolled back before entering the graph, but the
        # rejection witness may ride on them, so labelling needs them.
        self._rejection_arcs: list[int] | None = None
        self._labelled_rejection_cache: (
            list[tuple[Operation, Operation, frozenset[ArcKind]]] | None
        ) = None
        # Materialized-view cache, invalidated by the mutation counter.
        self._mutations = 0
        self._graph_cache: DiGraph | None = None
        self._graph_version = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> RelativeAtomicitySpec:
        """The relative atomicity specification in force."""
        return self._spec

    @property
    def graph(self) -> DiGraph:
        """The maintained RSG: all declared vertices and I-arcs, plus
        the D/F/B arcs of the pushed operations.

        A labelled :class:`~repro.graphs.digraph.DiGraph` view
        materialized from the flat engine on first access and cached
        until the next mutation — diagnostics and tests pay O(V + E)
        per epoch, the certification hot path never builds it.  Arcs
        of operations appended by :meth:`push_uncertified` never enter
        the flat engine, so a cyclic prefix's view stops at the
        certified arcs.
        """
        if self._graph_cache is None or self._graph_version != self._mutations:
            self._graph_cache = self._materialized_graph()
            self._graph_version = self._mutations
        return self._graph_cache

    @property
    def history(self) -> list[Operation]:
        """The pushed operations, in order (do not mutate)."""
        return self._history

    @property
    def last_rejected_cycle(self) -> list[Operation] | None:
        """Witness from the most recent refused ``try_push``."""
        return self._rejection

    @property
    def node_capacity(self) -> int:
        """Total node-id slots ever allocated (live + freelisted).

        Diagnostic for the boundedness claim: declare/remove churn must
        reuse freelisted ids, so capacity tracks the peak live set, not
        the cumulative number of declarations.
        """
        return self._flat.node_capacity

    @property
    def node_count(self) -> int:
        """Live node count (operations of currently-declared txs)."""
        return sum(len(ids) for ids in self._ids.values())

    def arc_census(self) -> dict[str, int]:
        """Live arc counts by kind, ``{"I": ..., "D": ..., ...}``.

        Walks the flat engine's collapsed arc masks (O(arcs), no graph
        materialization), counting each kind bit separately — an arc
        carrying both D and B counts once under each.  Sized for the
        ``inspect`` service verb, not the certification hot path.
        """
        census = dict.fromkeys(("I", "D", "F", "B"), 0)
        for _, mask in self._flat.edge_items():
            for bit, kind in _BIT_KINDS:
                if mask & bit:
                    census[kind.value] += 1
        return census

    def labelled_rejection(
        self,
    ) -> list[tuple[Operation, Operation, frozenset[ArcKind]]] | None:
        """The last rejection's witness with per-arc kind labels.

        Each consecutive cycle pair is labelled from the live graph
        where the arc survives, plus the refused push's tentative arcs
        (rolled back before entering the graph — the refused D/F/B arc
        that closed the cycle is always among these).  ``None`` when no
        rejection has happened.

        Memoized per rejection: the certifier asks once for the trace
        event and once for the Outcome's reason, and the labelling must
        reflect the graph at rejection time either way.
        """
        cycle_ids = self._rejection_ids
        if cycle_ids is None:
            return None
        if self._labelled_rejection_cache is not None:
            return self._labelled_rejection_cache
        tentative: dict[int, int] = {}
        arcs = self._rejection_arcs or []
        for i in range(0, len(arcs), 3):
            key = (arcs[i] << 32) | arcs[i + 1]
            tentative[key] = tentative.get(key, 0) | arcs[i + 2]
        flat = self._flat
        ops_of = self._ops_of
        labelled = []
        for u, v in zip(cycle_ids, cycle_ids[1:]):
            mask = flat.edge_mask(u, v) | tentative.get((u << 32) | v, 0)
            kinds = frozenset(
                kind for bit, kind in _BIT_KINDS if mask & bit
            )
            labelled.append((ops_of[u], ops_of[v], kinds))
        self._labelled_rejection_cache = labelled
        return labelled

    def __len__(self) -> int:
        return len(self._history)

    # ------------------------------------------------------------------
    # Growing
    # ------------------------------------------------------------------
    def add_transaction(self, transaction: Transaction) -> None:
        """Add a transaction's vertices and I-arcs to the graph.

        Idempotent for an already-declared transaction.  Node ids come
        from the flat graph's freelist, so declare/remove cycles reuse
        id slots instead of growing the arrays.
        """
        tx_id = transaction.tx_id
        if tx_id in self._ids:
            return
        flat = self._flat
        ops_of = self._ops_of
        ids: list[int] = []
        for op in transaction.operations:
            nid = flat.acquire_node()
            if nid == len(ops_of):
                ops_of.append(op)
            else:
                ops_of[nid] = op
            ids.append(nid)
        self._ids[tx_id] = ids
        self._tx_order.append(tx_id)
        if len(ids) > 1:
            buf = self._arc_buf
            del buf[:]
            for u, v in zip(ids, ids[1:]):
                buf.append(u)
                buf.append(v)
                buf.append(_I_BIT)
            batch = self._take_batch()
            if not flat.try_add_batch(buf, len(ids) - 1, batch):
                raise GraphError(  # pragma: no cover - fresh chain
                    "program-order arcs closed a cycle"
                )
            # I-arcs are permanent (never undone by pop), so the undo
            # batch goes straight back to the pool.
            self._batch_pool.append(batch)
        self._mutations += 1

    def remove_transaction(self, tx_id: int) -> None:
        """Undeclare a transaction with no operations in the history.

        Removes its vertices and I-arcs and returns the node ids to the
        flat graph's freelist (the next :meth:`add_transaction` reuses
        them).  D/F/B arcs always have both endpoints in transactions
        with history operations, so only I-arcs can be incident here.

        Raises:
            GraphError: when the transaction was never declared or
                still has pushed operations (pop or forget them first).
        """
        ids = self._ids.get(tx_id)
        if ids is None:
            raise GraphError(f"T{tx_id} was never declared")
        if tx_id in self._last_of_tx:
            raise GraphError(
                f"T{tx_id} still has operations in the history"
            )
        flat = self._flat
        for u, v in zip(ids, ids[1:]):
            flat.remove_edge(u, v)
        ops_of = self._ops_of
        for nid in ids:
            flat.release_node(nid)
            ops_of[nid] = None
        del self._ids[tx_id]
        self._tx_order.remove(tx_id)
        self._push_rows.pop(tx_id, None)
        for by_observer in self._push_rows.values():
            by_observer.pop(tx_id, None)
        self._pull_rows.pop(tx_id, None)
        for by_observer in self._pull_rows.values():
            by_observer.pop(tx_id, None)
        # Rejection diagnostics may reference the released ids.
        self._rejection = None
        self._rejection_ids = None
        self._rejection_arcs = None
        self._labelled_rejection_cache = None
        self._mutations += 1

    def try_push(self, op: Operation) -> bool:
        """Append ``op`` iff its arcs keep the RSG acyclic.

        Returns ``True`` (op recorded, arcs committed) or ``False``
        (nothing changed; the witness is in :attr:`last_rejected_cycle`).
        """
        if self._uncertified_from is not None:
            raise GraphError(
                "try_push on a cyclic prefix — use push_uncertified"
            )
        anc = self._ancestors_of(op)
        oid = self._ids[op.tx][op.index]
        buf = self._arc_buf
        count = self._fill_arcs(op, oid, anc, buf)
        batch = self._take_batch()
        if not self._flat.try_add_batch(buf, count, batch):
            self._batch_pool.append(batch)
            cycle_ids = self._flat.last_rejected_cycle or []
            ops_of = self._ops_of
            self._rejection_ids = cycle_ids
            self._rejection = [ops_of[i] for i in cycle_ids]
            self._rejection_arcs = buf[: 3 * count]
            self._labelled_rejection_cache = None
            return False
        self._record(op, oid, anc, batch)
        return True

    def push_uncertified(self, op: Operation) -> None:
        """Append ``op`` without adding its arcs to the graph.

        Marks the prefix cyclic from this point on (callers do this
        right after a refused :meth:`try_push`: arcs only accumulate as
        the prefix grows, so the refused operation's cycle exists in
        the full RSG of every extension).  Only the per-object trackers
        are updated, so that a later :meth:`pop` restores exact state;
        no arcs are derived and no cycle test runs.  The closure row is
        a sentinel zero: it is provably never read — :meth:`try_push`
        raises while the prefix is cyclic, and pops are LIFO, so by the
        time the prefix is acyclic again every zero row (and every
        tracker entry pointing at one) has been removed.
        """
        if self._uncertified_from is None:
            self._uncertified_from = len(self._history)
            self.acyclic = False
        # Manually inlined _record: once a prefix goes cyclic every
        # remaining operation lands here, so this is as hot as try_push
        # and the call frame is worth eliding.
        n = len(self._history)
        tx = op.tx
        obj = op.obj
        last_of_tx = self._last_of_tx
        reads_since_write = self._reads_since_write
        prev_tx_pos = last_of_tx.get(tx)
        last_of_tx[tx] = n
        write_undo = None
        if op.op_type is OpType.WRITE:
            write_undo = (
                self._last_write.get(obj), reads_since_write.get(obj)
            )
            self._last_write[obj] = n
            reads_since_write[obj] = []
        else:
            since = reads_since_write.get(obj)
            if since is None:
                reads_since_write[obj] = [n]
            else:
                since.append(n)
        self._hist_append(op)
        self._hist_ids_append(self._ids[tx][op.index])
        self._closed_append(0)
        self._log_append((None, prev_tx_pos, write_undo))
        self._mutations += 1

    def pop(self) -> Operation:
        """Undo the most recent push and return its operation."""
        if not self._history:
            raise GraphError("pop from an empty prefix")
        op = self._history.pop()
        self._hist_ids.pop()
        n = len(self._history)
        self._closed.pop()
        batch, prev_tx_pos, write_undo = self._log.pop()
        if batch is not None:
            self._flat.undo_batch(batch)
            self._batch_pool.append(batch)
        if self._uncertified_from is not None and self._uncertified_from >= n:
            self._uncertified_from = None
            self.acyclic = True
        # Per-object trackers.
        if prev_tx_pos is None:
            del self._last_of_tx[op.tx]
        else:
            self._last_of_tx[op.tx] = prev_tx_pos
        if write_undo is not None:
            prev_write, prev_reads = write_undo
            if prev_write is None:
                del self._last_write[op.obj]
            else:
                self._last_write[op.obj] = prev_write
            if prev_reads is None:
                self._reads_since_write.pop(op.obj, None)
            else:
                self._reads_since_write[op.obj] = prev_reads
        else:
            self._reads_since_write[op.obj].pop()
        self._mutations += 1
        return op

    # ------------------------------------------------------------------
    # Arc derivation
    # ------------------------------------------------------------------
    def _ancestors_of(self, op: Operation) -> int:
        """Bitset of history positions ``op`` depends on."""
        closed = self._closed
        anc = 0
        p = self._last_of_tx.get(op.tx)
        if p is not None:
            anc = closed[p]
        w = self._last_write.get(op.obj)
        if w is not None:
            anc |= closed[w]
        if op.op_type is OpType.WRITE:
            reads = self._reads_since_write.get(op.obj)
            if reads:
                for r in reads:
                    anc |= closed[r]
        return anc

    def _fill_arcs(
        self, op: Operation, oid: int, anc: int, buf: list[int]
    ) -> int:
        """Write ``op``'s new D/F/B arcs into ``buf`` as flat
        ``(source id, target id, kind bit)`` triples — three per
        cross-transaction ancestor (Definition 3 items 2-4) — and
        return the triple count.  ``buf`` is the engine's reusable
        scratch buffer; nothing is allocated on the steady-state path
        (the PushForward/PullBackward id rows are computed once per
        transaction pair and cached)."""
        del buf[:]
        append = buf.append
        history = self._history
        hist_ids = self._hist_ids
        push_rows = self._push_rows
        pull_rows = self._pull_rows
        op_tx = op.tx
        op_index = op.index
        count = 0
        bits = anc
        while bits:
            low = bits & -bits
            bits ^= low
            p = low.bit_length() - 1
            earlier = history[p]
            etx = earlier.tx
            if etx == op_tx:
                continue
            eid = hist_ids[p]
            append(eid)
            append(oid)
            append(_D_BIT)
            by_observer = push_rows.get(etx)
            if by_observer is None:
                by_observer = push_rows[etx] = {}
            row = by_observer.get(op_tx)
            if row is None:
                row = by_observer[op_tx] = _push_row(
                    self._spec, etx, op_tx, self._ids[etx]
                )
            append(row[earlier.index])
            append(oid)
            append(_F_BIT)
            by_observer = pull_rows.get(op_tx)
            if by_observer is None:
                by_observer = pull_rows[op_tx] = {}
            row = by_observer.get(etx)
            if row is None:
                row = by_observer[etx] = _pull_row(
                    self._spec, op_tx, etx, self._ids[op_tx]
                )
            append(eid)
            append(row[op_index])
            append(_B_BIT)
            count += 3
        return count

    def _take_batch(self) -> FlatBatch:
        pool = self._batch_pool
        return pool.pop() if pool else FlatBatch([], [])

    def _record(self, op: Operation, oid: int, anc: int, batch) -> None:
        n = len(self._history)
        last_of_tx = self._last_of_tx
        tx = op.tx
        obj = op.obj
        prev_tx_pos = last_of_tx.get(tx)
        last_of_tx[tx] = n
        write_undo = None
        if op.op_type is OpType.WRITE:
            write_undo = (
                self._last_write.get(obj),
                self._reads_since_write.get(obj),
            )
            self._last_write[obj] = n
            self._reads_since_write[obj] = []
        else:
            reads = self._reads_since_write.get(obj)
            if reads is None:
                self._reads_since_write[obj] = [n]
            else:
                reads.append(n)
        self._hist_append(op)
        self._hist_ids_append(oid)
        self._closed_append(anc | (1 << n))
        self._log_append((batch, prev_tx_pos, write_undo))
        self._mutations += 1

    # ------------------------------------------------------------------
    # Materialized view
    # ------------------------------------------------------------------
    def _materialized_graph(self) -> DiGraph:
        """Expand the flat engine into a fresh labelled :class:`DiGraph`."""
        graph = DiGraph()
        ops_of = self._ops_of
        for tx_id in self._tx_order:
            for nid in self._ids[tx_id]:
                graph.add_node(ops_of[nid])
        arcs = [
            (ops_of[key >> 32], ops_of[key & 0xFFFFFFFF], kind)
            for key, mask in self._flat.edge_items()
            for bit, kind in _BIT_KINDS
            if mask & bit
        ]
        graph.add_labelled_edges(arcs)
        return graph


def is_relatively_serializable(
    schedule: Schedule, spec: RelativeAtomicitySpec
) -> bool:
    """Theorem 1: whether ``schedule`` is conflict-equivalent to some
    relatively serial schedule, decided by RSG acyclicity."""
    return RelativeSerializationGraph(schedule, spec).is_acyclic


def _check_spec_matches(schedule: Schedule, spec: RelativeAtomicitySpec) -> None:
    """Ensure the spec covers exactly the schedule's transactions."""
    schedule_ids = set(schedule.transactions)
    spec_ids = set(spec.transactions)
    if schedule_ids != spec_ids:
        raise InvalidSpecError(
            "spec transactions do not match schedule transactions: "
            f"schedule has {sorted(schedule_ids)}, spec has {sorted(spec_ids)}"
        )
    for tx_id in schedule_ids:
        if schedule.transactions[tx_id] != spec.transactions[tx_id]:
            raise InvalidSpecError(
                f"T{tx_id} differs between schedule and spec"
            )
