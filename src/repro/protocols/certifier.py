"""Incremental RSG certification shared by the online protocols.

Maintains the relative serialization graph over the declared operations
of admitted transactions, with D/F/B arcs derived incrementally from the
granted history.  Used by :class:`~repro.protocols.rsgt.RSGTScheduler`
(pure certification) and
:class:`~repro.protocols.relative_locking.RelativeLockingScheduler`
(locking for blocking discipline + certification for soundness).

The heavy lifting lives in :class:`~repro.core.rsg.IncrementalRsg`: a
Pearce–Kelly incrementally ordered graph certifies each granted
operation in amortized sub-linear time (no graph copy, no full DFS), and
``forget`` (restarting a victim) pops the history back to the victim's
first granted operation and replays the survivors — each pop and each
replayed push costs O(#its-arcs).

A key monotonicity fact makes online use sound: granting more operations
only ever *adds* arcs, so an operation whose tentative insertion closes
a cycle will close it forever — certification failures are final and the
requester must abort, never wait.  The same fact makes forget-replay
infallible: the survivors' arc set is a subset of the arcs the graph
already held acyclically, so re-pushing them cannot close a cycle.  A
from-scratch :meth:`RsgCertifier.rebuild` is kept purely as a defensive
fallback (and for tests); :attr:`RsgCertifier.stats` records if it ever
fires.

**Retirement.** The graph covers a *live window*, not the whole
history.  Every arc a push creates ends in the pushing transaction
(D-arcs run from earlier to later operations, F-arcs end at the new
operation, B-arcs at ``PullBackward`` of it), so once ``Ti`` commits no
arc can ever enter its vertices again.  If, moreover, every in-arc of
``Ti`` comes from a retired transaction, ``Ti`` can never lie on a
future cycle, and since all its ancestors are retired, no depends-on
path between live operations runs through it: dropping it changes no
future verdict (the RSG analogue of the SGT deletion rule).  Live
transactions may still depend on ``Ti`` (a reader of its committed
writes does); every arc touching ``Ti`` then leaves it, so the arcs
among live vertices are unchanged.  :meth:`RsgCertifier.commit`
records commits; once the history has doubled since the last
compaction, one O(window) pass retires every committed transaction
that no uncommitted transaction reaches in the transaction-level
conflict graph, then rebuilds the engine over what is left by
replaying it in order.  That replay cannot fail either: its arcs are
the old graph's arcs among the kept vertices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.operations import Operation
from repro.core.rsg import ArcKind, IncrementalRsg
from repro.core.transactions import Transaction
from repro.errors import CycleError
from repro.graphs.digraph import DiGraph
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import EventKind, Reason
from repro.obs.explain import RejectionWitness, witness_from_certifier

__all__ = ["CertifierStats", "RsgCertifier"]

#: Interned verdict extras: one of these rides on every certification
#: event, so building the nested tuple per call is pure hot-path waste.
_OK_EXTRA = (("ok", True),)
_REJECT_EXTRA = (("ok", False),)


@dataclass
class CertifierStats:
    """Operational counters of one :class:`RsgCertifier`.

    ``fallback_rebuilds`` should stay zero: forget-replay and
    compaction replay are provably infallible (see the module
    docstring), so a non-zero count means a defensive path fired on a
    bug worth investigating.  ``retired`` counts committed transactions
    dropped from the live window, ``compactions`` the passes that
    looked for them.
    """

    certified: int = 0
    rejected: int = 0
    forgets: int = 0
    replayed: int = 0
    fallback_rebuilds: int = 0
    retired: int = 0
    compactions: int = 0


class RsgCertifier:
    """Incremental relative-serialization-graph acyclicity checking.

    A certifier that is never told about commits keeps every certified
    operation; one whose owner calls :meth:`commit` retires committed
    transactions from its live window (see the module docstring).
    Verdicts are the same either way.

    Args:
        spec: the relative atomicity specification covering every
            transaction that will be declared.
    """

    #: History length below which no compaction runs; past it, one runs
    #: each time the live window has doubled since the last.  An
    #: amortisation constant: each compaction replays the window once,
    #: and at least half of it was pushed since the previous one.
    _compact_floor = 32

    def __init__(self, spec: RelativeAtomicitySpec) -> None:
        self._spec = spec
        self._engine = IncrementalRsg(spec)
        self._declared: dict[int, Transaction] = {}
        # Committed transactions still in the live window.
        self._committed: set[int] = set()
        self._compact_at = self._compact_floor
        self._stats = CertifierStats()
        # Memoized (rejection count, Reason) of the last rejection: the
        # reason is read at least twice per rejection (once for the
        # verdict event, once for the abort Outcome), and building the
        # labelled witness is the expensive part of a rejection.
        self._reason_cache: tuple[int, Reason | None] = (0, None)
        #: Trace bus certification events are emitted to (owning
        #: schedulers propagate theirs through ``_on_bus_change``).
        self.bus: TraceBus = NULL_BUS

    @property
    def graph(self) -> DiGraph:
        """The current RSG over the live window: the operations of every
        declared, not yet retired transaction.

        A labelled :class:`~repro.graphs.digraph.DiGraph` materialized
        from the engine on access (cached until its next mutation);
        certification itself never builds it.
        """
        return self._engine.graph

    @property
    def history(self) -> tuple[Operation, ...]:
        """The live window's certified (granted) operations, in order.

        Retired transactions' operations are gone from it; without
        :meth:`commit` calls nothing retires and this is the whole
        certified history.
        """
        return tuple(self._engine.history)

    @property
    def stats(self) -> CertifierStats:
        """Operational counters (grants, rejections, restarts)."""
        return self._stats

    @property
    def last_rejected_cycle(self) -> list[Operation] | None:
        """Witness cycle from the most recent refused certification."""
        return self._engine.last_rejected_cycle

    @property
    def node_capacity(self) -> int:
        """Node-id slots the engine ever allocated (live + freelisted).

        Bounded by the peak concurrently-declared operation count under
        declare/undeclare churn — the freelist reuses released ids.
        """
        return self._engine.node_capacity

    def rsg_summary(self) -> dict[str, object]:
        """A compact census of the in-flight RSG for live introspection.

        ``nodes``/``arcs`` describe the live graph (arc counts keyed by
        I/D/F/B kind) and ``history`` the live window's certified
        length; all three stay bounded on a server whose transactions
        commit.  The lifetime counters follow: ``certified``/
        ``rejected`` verdicts, ``forgets`` with the operations they
        ``replayed``, ``fallback_rebuilds`` (always 0 unless a bug),
        and ``retired`` transactions over ``compactions`` passes.
        Walks the flat engine's arc masks — O(arcs), no graph
        materialization — so the ``inspect`` service verb can call it
        on a busy server.
        """
        arcs = self._engine.arc_census()
        return {
            "nodes": self._engine.node_count,
            "arcs": arcs,
            "arc_total": sum(arcs.values()),
            "history": len(self._engine),
            **asdict(self._stats),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def declare(self, transaction: Transaction) -> None:
        """Add a transaction's vertices and I-arcs to the graph."""
        self._declared[transaction.tx_id] = transaction
        self._engine.add_transaction(transaction)

    def undeclare(self, tx_id: int) -> None:
        """Remove a declared transaction's vertices and I-arcs entirely.

        The inverse of :meth:`declare`, for callers that drop a
        transaction for good (permanent abort) rather than restarting
        it.  The transaction must hold no certified operations — call
        :meth:`forget` first.  The engine returns the freed node ids to
        its freelist, so long campaigns with transaction churn keep the
        graph's node arrays bounded by the live set.
        """
        self._engine.remove_transaction(tx_id)
        del self._declared[tx_id]
        self._committed.discard(tx_id)

    def commit(self, tx_id: int) -> None:
        """Record that ``T{tx_id}`` committed: it pushes nothing more.

        Committed transactions become retirable; once the live window
        has doubled since the last compaction (and is past
        :attr:`_compact_floor`), :meth:`_compact` retires them.
        """
        self._committed.add(tx_id)
        if len(self._engine) >= self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Retire what can be retired and rebuild the engine without it.

        O(window): one pass builds the transaction-level graph of direct
        conflicts (the covering set the engine's trackers use: each
        operation's last writer, and for a write the readers since),
        marks every uncommitted transaction and everything reachable
        from one as blocked, and retires every other committed
        transaction.  A transaction-level path over-approximates the
        operation-level ``depends-on`` paths, so a retired transaction
        has no live ancestor: its in-arcs all come from retired ones.
        """
        self._stats.compactions += 1
        history = self._engine.history
        retire = self._retirable(history)
        if retire:
            kept = [
                transaction
                for tx_id, transaction in self._declared.items()
                if tx_id not in retire
            ]
            window = [op for op in history if op.tx not in retire]
            engine, refused = self._replayed(kept, window)
            if refused is None:
                self._engine = engine
                for tx_id in retire:
                    del self._declared[tx_id]
                self._committed -= retire
                self._stats.retired += len(retire)
            else:  # pragma: no cover
                # Provably unreachable (the kept arcs are a subset of an
                # acyclic graph's); keep the old engine, retire nothing.
                self._stats.fallback_rebuilds += 1
        self._compact_at = max(self._compact_floor, 2 * len(self._engine))

    def _retirable(self, history: list[Operation]) -> set[int]:
        """Committed transactions no uncommitted one reaches in the
        transaction-level conflict graph of ``history``."""
        succ: dict[int, set[int]] = {}
        last_write: dict[str, int] = {}
        readers: dict[str, set[int]] = {}
        live: set[int] = set()
        committed = self._committed
        for op in history:
            tx = op.tx
            obj = op.obj
            if tx not in committed:
                live.add(tx)
            writer = last_write.get(obj)
            if writer is not None and writer != tx:
                succ.setdefault(writer, set()).add(tx)
            if op.is_write:
                for reader in readers.pop(obj, ()):
                    if reader != tx:
                        succ.setdefault(reader, set()).add(tx)
                last_write[obj] = tx
            else:
                readers.setdefault(obj, set()).add(tx)
        blocked = set(live)
        stack = list(live)
        while stack:
            for later in succ.get(stack.pop(), ()):
                if later not in blocked:
                    blocked.add(later)
                    stack.append(later)
        return committed - blocked

    def try_certify(self, op: Operation) -> bool:
        """Tentatively append ``op``; commit the arcs iff still acyclic.

        Returns ``True`` (op recorded) or ``False`` (graph unchanged;
        by monotonicity the op can never be certified in this
        incarnation).
        """
        bus = self.bus
        if bus.active:
            bus.emit(
                EventKind.CERTIFY_ATTEMPT, op.tx, op.label, "certifier"
            )
        if self._engine.try_push(op):
            self._stats.certified += 1
            if bus.active:
                bus.emit(
                    EventKind.CERTIFY_VERDICT,
                    op.tx,
                    op.label,
                    "certifier",
                    None,
                    _OK_EXTRA,
                )
            return True
        self._stats.rejected += 1
        if bus.active:
            bus.emit(
                EventKind.CERTIFY_VERDICT,
                tx=op.tx,
                op=op.label,
                protocol="certifier",
                reason=self.rejection_reason(),
                extra=_REJECT_EXTRA,
            )
        return False

    def labelled_witness(
        self,
    ) -> list[tuple[Operation, Operation, frozenset[ArcKind]]] | None:
        """The last rejection's cycle with per-arc I/D/F/B labels.

        Includes the refused arcs that were rolled back before entering
        the graph (the engine remembers the rejected push's tentative
        arc set).  ``None`` when no rejection has happened.
        """
        return self._engine.labelled_rejection()

    def rejection_reason(self) -> Reason | None:
        """The last rejection as a :class:`~repro.obs.events.Reason`.

        Carries the implicated transaction ids (ascending) and the
        labelled witness cycle; ``None`` when no rejection has happened.
        """
        key, cached = self._reason_cache
        if key == self._stats.rejected:
            return cached
        witness = self.last_rejected_witness
        if witness is None:
            return None
        cycle = self._engine.last_rejected_cycle or []
        blockers = tuple(sorted({op.tx for op in cycle}))
        reason = Reason(
            "rsg-cycle", blockers=blockers, cycle=witness.reason_cycle()
        )
        self._reason_cache = (self._stats.rejected, reason)
        return reason

    @property
    def last_rejected_witness(self) -> RejectionWitness | None:
        """Labelled witness of the most recent refused certification."""
        return witness_from_certifier(self)

    def forget(self, tx_id: int) -> None:
        """Drop a victim's granted operations, keeping everyone else's.

        The transaction stays declared (its vertices and I-arcs remain),
        matching restart semantics.  Implemented as suffix replay: pop
        the history back to the victim's first granted operation, then
        re-push the popped survivors — O(arcs touched), not O(graph).
        """
        self._stats.forgets += 1
        victim_ops = set(self._declared[tx_id].operations)
        history = self._engine.history
        first = next(
            (i for i, op in enumerate(history) if op in victim_ops), None
        )
        if first is None:
            return
        survivors = [op for op in history if op not in victim_ops]
        popped: list[Operation] = []
        while len(self._engine) > first:
            popped.append(self._engine.pop())
        popped.reverse()
        for op in popped:
            if op in victim_ops:
                continue
            if not self._engine.try_push(op):  # pragma: no cover
                # Provably unreachable (survivor arcs are a subset of an
                # acyclic graph's); kept as a defensive fallback.
                self._stats.fallback_rebuilds += 1
                self.rebuild(list(self._declared.values()), survivors)
                return
            self._stats.replayed += 1

    def rebuild(
        self,
        transactions: Iterable[Transaction],
        history: Iterable[Operation],
    ) -> None:
        """Reconstruct certifier state from scratch for the given history.

        Commit marks survive for the transactions still declared.

        Raises:
            CycleError: when the given history is not certifiable (it
                closes an RSG cycle), carrying the witness.
        """
        transactions = list(transactions)
        engine, refused = self._replayed(transactions, history)
        self._engine = engine
        self._declared = {tx.tx_id: tx for tx in transactions}
        self._committed.intersection_update(self._declared)
        self._reason_cache = (-1, None)
        if refused is not None:
            raise CycleError(
                f"rebuild history is not certifiable at {refused!r}",
                cycle=engine.last_rejected_cycle,
            )

    def _replayed(
        self,
        transactions: Iterable[Transaction],
        history: Iterable[Operation],
    ) -> tuple[IncrementalRsg, Operation | None]:
        """A fresh engine with ``transactions`` declared and ``history``
        pushed in order, plus the first operation it refused (``None``
        when every push certified)."""
        engine = IncrementalRsg(self._spec)
        for transaction in transactions:
            engine.add_transaction(transaction)
        for op in history:
            if not engine.try_push(op):
                return engine, op
        return engine, None
