"""Certified relative locking — the lock-based protocol the paper
announces as future work.

Section 5 closes with: "The next step, in traditional databases was the
development of more efficient locking based protocols ... We are
currently developing such efficient, lock based protocols for
recognizing relatively serializable executions."  This module builds a
concrete such protocol, positioned (as the paper positions relative
atomicity itself) as a generalization of altruistic locking:

* **base**: strict two-phase locking (S/X locks, wait on conflict,
  waits-for deadlock detection, abort the requester on a cycle);
* **per-observer donation**: when transaction ``Ti`` finishes executing
  position ``p`` and position ``p + 1`` is an atomic-unit boundary of
  ``Atomicity(Ti, Tj)``, every held object whose *last use has passed*
  is donated **to Tj specifically** — ``Tj`` may acquire it even though
  ``Ti`` still formally holds it.  This is what admits the non-conflict-
  serializable interleavings the relaxed model exists for (the paper's
  ``Sra`` is granted operation by operation; see the tests);
* **open-unit containment**: a borrower indebted to ``Ti`` may not
  acquire an object that ``Ti`` accesses inside its currently open
  atomic unit relative to the borrower, unless donated — keeping the
  borrower out of unit interiors it could get trapped in;
* **RSG certification**: each lock-admissible operation is additionally
  certified against the incremental relative serialization graph
  (:class:`~repro.protocols.certifier.RsgCertifier`) and aborts if it
  would close a cycle.

Why the certification step is genuinely necessary (and not an
implementation shortcut): purely local locking rules cannot see
*unit-closure* dependencies through third transactions.  Concretely, a
dependency ``d -> b`` created by a donation adds the push-forward arc
``PushForward(d, T_b) -> b`` for *every* pair of transactions related to
``d`` and ``b`` through conflicts — including pairs whose atomic units
neither the donor nor the borrower can observe locally.  Randomized
search finds real instances where every local rule we tried (full
open-unit blocking, wake containment, transitivity of debts) still
admits an RSG cycle built from two donations and an unrelated absolute
unit.  The paper leaves lock-based protocols as future work precisely
because of this gap; certification closes it while the locking layer
still provides the blocking discipline (waits instead of aborts for
plain conflicts) that distinguishes this protocol from pure RSGT.

Like all locking protocols (the paper's analogy: two-phase locking
recognizes a subset of the conflict serializable schedules), the locking
layer restricts which relatively serializable histories are reachable;
certification guarantees nothing outside the class ever commits.  Every
committed history is re-verified against the offline RSG test in the
test suite across randomized workloads and specifications.
"""

from __future__ import annotations

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.operations import Operation
from repro.core.transactions import Transaction
from repro.errors import ProtocolError
from repro.graphs.digraph import DiGraph
from repro.obs.bus import TraceBus
from repro.obs.events import Reason
from repro.protocols.base import Outcome, Scheduler
from repro.protocols.certifier import RsgCertifier
from repro.protocols.locks import LockMode, LockTable

__all__ = ["RelativeLockingScheduler"]


class RelativeLockingScheduler(Scheduler):
    """Strict 2PL with atomic-unit-boundary donation.

    Args:
        spec: the relative atomicity specification covering every
            transaction that will be admitted.  With an all-absolute
            spec the only boundary is end-of-transaction, so the
            protocol degenerates to strict 2PL exactly.
    """

    name = "relative-locking"

    def __init__(self, spec: RelativeAtomicitySpec) -> None:
        super().__init__()
        self._spec = spec
        self._certifier = RsgCertifier(spec)
        self._locks = LockTable()
        self._waiting_on: dict[int, set[int]] = {}
        # Static per-transaction facts.
        self._last_use: dict[int, dict[str, int]] = {}
        self._access_set: dict[int, frozenset[str]] = {}
        # (holder, object) -> set of observer tx ids the lock is donated
        # to.  Donation is per observer, unlike plain altruistic locking.
        self._donated_to: dict[tuple[int, str], set[int]] = {}
        # borrower -> donors it is indebted to.
        self._indebted_to: dict[int, set[int]] = {}

    @property
    def spec(self) -> RelativeAtomicitySpec:
        """The specification the protocol enforces."""
        return self._spec

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _on_admit(self, transaction: Transaction) -> None:
        if transaction.tx_id not in self._spec.transactions:
            raise ProtocolError(
                f"T{transaction.tx_id} is not covered by the spec"
            )
        if self._spec.transactions[transaction.tx_id] != transaction:
            raise ProtocolError(
                f"declared T{transaction.tx_id} differs from the spec's"
            )
        last_use: dict[str, int] = {}
        for position, op in enumerate(transaction):
            last_use[op.obj] = position
        self._last_use[transaction.tx_id] = last_use
        self._access_set[transaction.tx_id] = transaction.objects
        self._certifier.declare(transaction)

    # ------------------------------------------------------------------
    # The locking policy
    # ------------------------------------------------------------------
    def _decide(self, op: Operation) -> Outcome:
        mode = LockMode.SHARED if op.is_read else LockMode.EXCLUSIVE
        lock_blockers = self._lock_blockers(op, mode)
        containment = self._containment_blockers(op)
        blockers = lock_blockers | containment
        blockers.discard(op.tx)
        if not blockers:
            if not self._certifier.try_certify(op):
                # Monotone: this operation would close an RSG cycle now
                # and forever — restart the requester.
                return Outcome.abort(
                    op.tx, reason=self._certifier.rejection_reason()
                )
            self._waiting_on.pop(op.tx, None)
            self._locks.acquire(op.obj, op.tx, mode)
            self._record_borrowings(op)
            self._donate_at_boundary(op)
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
        if containment - lock_blockers:
            # The wait is (at least partly) the open-unit containment
            # rule: name the donors whose unit interiors are off-limits.
            return Outcome.wait(
                Reason(
                    "unit-containment",
                    blockers=tuple(sorted(blockers)),
                    detail=(
                        "indebted to donors "
                        + ", ".join(
                            f"T{donor}" for donor in sorted(containment)
                        )
                        + " with open atomic units covering "
                        + op.obj
                    ),
                )
            )
        return Outcome.wait(
            Reason("lock-conflict", blockers=tuple(sorted(blockers)))
        )

    def _on_bus_change(self, bus: TraceBus) -> None:
        self._certifier.bus = bus

    def donation_edges(self) -> tuple[tuple[int, str, int], ...]:
        """Per-observer donations: ``(donor, object, observer)``, sorted."""
        return tuple(
            sorted(
                (donor, obj, observer)
                for (donor, obj), observers in self._donated_to.items()
                for observer in observers
            )
        )

    def _rsg_summary(self) -> dict[str, object]:
        return self._certifier.rsg_summary()

    def _lock_blockers(self, op: Operation, mode: LockMode) -> set[int]:
        """Incompatible holders, ignoring locks donated to the requester."""
        blocking: set[int] = set()
        for holder, held in self._locks.holders(op.obj).items():
            if holder == op.tx or self.is_committed(holder):
                continue
            compatible = (
                held is LockMode.SHARED and mode is LockMode.SHARED
            )
            if compatible:
                continue
            if op.tx in self._donated_to.get((holder, op.obj), set()):
                continue
            blocking.add(holder)
        return blocking

    def _containment_blockers(self, op: Operation) -> set[int]:
        """Open-unit containment for indebted borrowers.

        An indebted borrower must not touch an object its donor accesses
        in the donor's *currently open* atomic unit (relative to the
        borrower) unless the donor donated it.  Later-unit objects are
        allowed: the borrower's operations all precede that unit's span.
        """
        blocking: set[int] = set()
        for donor in self._indebted_to.get(op.tx, ()):
            if self.is_committed(donor):
                continue
            if op.obj not in self._access_set[donor]:
                continue
            if op.tx in self._donated_to.get((donor, op.obj), set()):
                continue
            if self._in_open_unit(donor, op.tx, op.obj):
                blocking.add(donor)
        return blocking

    def _in_open_unit(self, donor: int, observer: int, obj: str) -> bool:
        """Whether ``obj`` is a *remaining* access of the donor's open
        unit relative to the observer.

        The open unit is the one containing the donor's next operation.
        A unit that has not started yet is exempt: the borrower's
        operation precedes its span, so it cannot be interleaved with
        it.  This exemption is *not* sound on its own — transitive
        dependency chains through third transactions' units can still
        pin the borrower inside a span (randomized search finds real
        counterexamples) — which is exactly what the RSG certification
        step exists to catch.  The containment rule's job is to keep
        such doomed requests (and the restarts they would cause) rare,
        not to be airtight.
        """
        progress = self.progress(donor)
        program = self.transaction(donor)
        if progress >= len(program):
            return False  # donor finished; commit will release
        view = self._spec.atomicity(donor, observer)
        unit = view.unit_of(progress)
        if progress == unit.start:
            return False  # unit not started: borrower precedes its span
        return any(
            program[index].obj == obj
            for index in range(progress, unit.end + 1)
        )

    def _record_borrowings(self, op: Operation) -> None:
        for holder, _mode in self._locks.holders(op.obj).items():
            if holder == op.tx or self.is_committed(holder):
                continue
            if op.tx in self._donated_to.get((holder, op.obj), set()):
                debts = self._indebted_to.setdefault(op.tx, set())
                debts.add(holder)
                debts.update(self._indebted_to.get(holder, ()))
                debts.discard(op.tx)

    def _donate_at_boundary(self, op: Operation) -> None:
        """After executing ``op``, donate finished objects to every
        observer whose view of ``op.tx`` has a boundary here."""
        tx_id = op.tx
        position = op.index
        program = self.transaction(tx_id)
        at_end = position == len(program) - 1
        last_use = self._last_use[tx_id]
        finished = [
            obj
            for obj in program.objects
            if last_use[obj] <= position
            and self._locks.mode_of(obj, tx_id) is not None
        ]
        if not finished:
            return
        for observer_id in self.admitted_ids:
            if observer_id == tx_id:
                continue
            view = self._spec.atomicity(tx_id, observer_id)
            if at_end or (position + 1) in view.breakpoints:
                for obj in finished:
                    self._donated_to.setdefault(
                        (tx_id, obj), set()
                    ).add(observer_id)

    # ------------------------------------------------------------------
    # Deadlock (same shape as strict 2PL)
    # ------------------------------------------------------------------
    def _deadlocked(self, requester: int) -> tuple[int, ...]:
        graph = DiGraph()
        for waiter, blockers in self._waiting_on.items():
            for blocker in blockers:
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

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def _forget(self, tx_id: int) -> None:
        self._locks.release_all(tx_id)
        self._waiting_on.pop(tx_id, None)
        self._indebted_to.pop(tx_id, None)
        for key in [k for k in self._donated_to if k[0] == tx_id]:
            del self._donated_to[key]
        for debts in self._indebted_to.values():
            debts.discard(tx_id)

    def _on_finish(self, tx_id: int) -> None:
        # Locks and debts go; the certified history stays until the
        # certifier proves it can constrain no future cycle (retirement).
        self._forget(tx_id)
        self._certifier.commit(tx_id)

    def _on_remove(self, tx_id: int) -> None:
        self._forget(tx_id)
        self._certifier.forget(tx_id)

    def _on_discard(self, tx_id: int) -> None:
        self._last_use.pop(tx_id, None)
        self._access_set.pop(tx_id, None)
        # Parked waiters must not keep a gone transaction as a blocker
        # (see TwoPhaseLockingScheduler._on_discard).
        for blockers in self._waiting_on.values():
            blockers.discard(tx_id)
        self._certifier.undeclare(tx_id)
