"""Simplified altruistic locking [SGMA87].

Altruistic locking extends 2PL for long-lived transactions: when a
transaction will never access an object again, it *donates* the lock —
still formally held until commit, but other transactions may acquire the
object and run "in the donor's wake".

This implementation follows the protocol's two load-bearing rules in a
simplified, pre-declared form (the full paper's recovery machinery is out
of scope; see DESIGN.md's substitution notes):

* **donate after last use** — access sets are declared on admission, so
  the scheduler donates an object the moment its holder executes its
  final operation on it;
* **wake containment** — a transaction that has acquired a donated
  object of a donor is *indebted* to that donor: it may not touch any
  object in the donor's declared access set unless the donor has already
  donated it.  (This is what makes the donor/borrower serialization
  order consistent: the borrower always sits entirely "behind" the
  donor.)
* **wake taint** — objects accessed by an indebted transaction carry
  that wake with them: a later transaction whose access *conflicts*
  with an in-wake access joins the donor's wake too (it serializes
  after the borrower, hence after the donor), so it must pass the same
  containment check or wait for the donor.  Without this a borrower
  could commit, launder its in-wake write through the lock table, and
  let a third transaction read the wake data while racing *ahead* of
  the donor elsewhere — a serialization cycle the first two rules
  cannot see (pinned as a regression test);
* **wake acyclicity** — a donation is unusable when the donor is itself
  (through any chain of debts, even via committed middlemen) in the
  requester's wake: borrowing it would seat the requester both before
  and after the donor.  Fault campaigns flushed this one out: a ring of
  pairwise-legal donations (T1 donates to T2, T2 to T3, T3 back to T1)
  used to commit a cyclic history.  The guard survives the chain's
  commits: debts and taints of committed transactions are kept, and a
  creditor left waiting only on committed blockers is restarted (that
  wait could never clear — the conflicting accesses are already pinned
  ahead of it).

Deadlock handling is the same waits-for check as plain 2PL.  The test
suite asserts every final committed history is conflict serializable.
"""

from __future__ import annotations

from repro.core.operations import Operation
from repro.core.transactions import Transaction
from repro.graphs.digraph import DiGraph
from repro.obs.events import Reason
from repro.protocols.base import Outcome, Scheduler
from repro.protocols.locks import LockMode, LockTable

__all__ = ["AltruisticLockingScheduler"]


class AltruisticLockingScheduler(Scheduler):
    """2PL with donate-after-last-use and wake containment."""

    name = "altruistic"

    def __init__(self) -> None:
        super().__init__()
        self._locks = LockTable()
        self._waiting_on: dict[int, set[int]] = {}
        # Static, from declared programs:
        self._last_use: dict[int, dict[str, int]] = {}
        self._access_set: dict[int, frozenset[str]] = {}
        # Dynamic wake state: borrower -> donors it is indebted to.
        self._indebted_to: dict[int, set[int]] = {}
        # Wake taint: obj -> donor -> {contributor: strongest access mode}.
        # Records which objects were touched by transactions indebted to a
        # still-active donor; survives the contributor's commit, cleared
        # when the donor retires or the contributor aborts.
        self._taint: dict[str, dict[int, dict[int, LockMode]]] = {}

    def _on_admit(self, transaction: Transaction) -> None:
        last_use: dict[str, int] = {}
        for position, op in enumerate(transaction):
            last_use[op.obj] = position
        self._last_use[transaction.tx_id] = last_use
        self._access_set[transaction.tx_id] = transaction.objects

    def _decide(self, op: Operation) -> Outcome:
        mode = LockMode.SHARED if op.is_read else LockMode.EXCLUSIVE
        donors = frozenset(self._usable_donors(op))
        blockers = self._locks.blockers(
            op.obj, op.tx, mode, ignore_donated_of=donors
        )
        blockers.update(self._wake_blockers(op))
        blockers.update(self._taint_blockers(op))
        blockers.discard(op.tx)
        if not blockers:
            self._waiting_on.pop(op.tx, None)
            self._locks.acquire(op.obj, op.tx, mode)
            self._record_borrowings(op)
            self._join_tainted_wakes(op)
            self._record_taint(op)
            self._maybe_donate(op)
            return Outcome.grant()
        sorted_blockers = tuple(sorted(blockers))
        if all(self.is_committed(blocker) for blocker in blockers):
            # Every blocker is committed, so the wait can never clear:
            # the conflicting accesses are pinned in the serialization
            # order ahead of this transaction (it is a creditor of a
            # committed donor).  Restart to serialize after them.
            return Outcome.abort(
                op.tx,
                reason=Reason(
                    "committed-blockers",
                    blockers=sorted_blockers,
                    detail="wait can never clear: all blockers committed",
                ),
            )
        self._waiting_on[op.tx] = blockers
        victims = self._deadlocked(op.tx)
        if victims:
            return Outcome.abort(
                *victims,
                reason=Reason(
                    "deadlock",
                    blockers=sorted_blockers,
                    detail=f"waits-for cycle through T{op.tx}",
                ),
            )
        return Outcome.wait(
            Reason("lock-conflict", blockers=sorted_blockers)
        )

    # ------------------------------------------------------------------
    # Altruistic rules
    # ------------------------------------------------------------------
    def _usable_donors(self, op: Operation) -> set[int]:
        """Donors whose donated lock on ``op.obj`` the requester may use.

        A donated lock is usable only when the requester is (and has
        been) entirely *in the donor's wake*: every object the requester
        has touched so far that the donor declared must already have been
        donated by the donor.  Without this check a borrower that raced
        ahead of the donor on some object would serialize both before and
        after it (the [SGMA87] wake rule).  Borrowing makes the requester
        indebted (recorded on grant).
        """
        donors = set()
        for holder, _mode in self._locks.holders(op.obj).items():
            if holder == op.tx or self.is_committed(holder):
                continue
            if (
                self._locks.has_donated(op.obj, holder)
                and self._in_wake(op.tx, holder)
                and op.tx not in self._wake_creditors(holder)
            ):
                donors.add(holder)
        return donors

    def _wake_creditors(self, donor: int) -> set[int]:
        """Everyone the donor is transitively indebted to.

        Borrowing from a donor that is itself (through any chain of
        donations) in the requester's wake would make the requester
        serialize both before and after the donor — the indebtedness
        relation must stay acyclic, so such a donation is unusable and
        the holder blocks like an ordinary lock.  Debt edges are followed
        through committed transactions too: commit pins the serialization
        order, it does not dissolve it.
        """
        seen: set[int] = set()
        frontier = list(self._indebted_to.get(donor, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._indebted_to.get(node, ()))
        return seen

    def _in_wake(self, requester: int, donor: int) -> bool:
        """Whether the requester's executed prefix lies in the donor's wake."""
        executed = self.transaction(requester).operations[
            : self.progress(requester)
        ]
        donor_objects = self._access_set[donor]
        for past in executed:
            if past.obj in donor_objects and not self._locks.has_donated(
                past.obj, donor
            ):
                return False
        return True

    def _wake_blockers(self, op: Operation) -> set[int]:
        """Wake containment: indebted transactions must not touch a
        donor's declared-but-undonated objects."""
        blocking = set()
        for donor in self._indebted_to.get(op.tx, ()):
            if self.is_committed(donor):
                continue
            if op.obj not in self._access_set[donor]:
                continue
            if not self._locks.has_donated(op.obj, donor):
                blocking.add(donor)
        return blocking

    def _conflicting_taint_donors(self, op: Operation) -> set[int]:
        """Active donors whose wake ``op`` would join through tainted data.

        A donor is relevant when some transaction indebted to it accessed
        ``op.obj`` in a mode conflicting with this request: the requester
        then serializes after that in-wake access, hence after the donor.
        """
        donors = set()
        for donor, contributors in self._taint.get(op.obj, {}).items():
            if donor == op.tx:
                continue
            if self.is_committed(donor) and op.tx not in self._wake_creditors(
                donor
            ):
                # A committed donor's wake is over for everyone *except*
                # its creditors: they are pinned before it in the
                # serialization order, so serializing after its wake data
                # would still close a cycle.
                continue
            for contributor, held in contributors.items():
                if contributor == op.tx:
                    continue
                if held is LockMode.EXCLUSIVE or op.is_write:
                    donors.add(donor)
                    break
        return donors

    def _taint_blockers(self, op: Operation) -> set[int]:
        """Donors whose tainted wake the requester may not join yet."""
        return {
            donor
            for donor in self._conflicting_taint_donors(op)
            if not self._in_wake(op.tx, donor)
            or op.tx in self._wake_creditors(donor)
        }

    def _join_tainted_wakes(self, op: Operation) -> None:
        """Inherit debts to every donor whose tainted data ``op`` touches
        (the grant already verified the requester is in those wakes)."""
        donors = self._conflicting_taint_donors(op)
        if donors:
            debts = self._indebted_to.setdefault(op.tx, set())
            debts.update(donors)
            debts.discard(op.tx)

    def _record_taint(self, op: Operation) -> None:
        """Mark ``op.obj`` as carrying the wakes ``op.tx`` is in."""
        mode = LockMode.EXCLUSIVE if op.is_write else LockMode.SHARED
        for donor in self._indebted_to.get(op.tx, ()):
            if self.is_committed(donor):
                continue
            contributors = self._taint.setdefault(op.obj, {}).setdefault(
                donor, {}
            )
            if contributors.get(op.tx) is not LockMode.EXCLUSIVE:
                contributors[op.tx] = mode

    def _record_borrowings(self, op: Operation) -> None:
        for holder, _mode in self._locks.holders(op.obj).items():
            if holder == op.tx or self.is_committed(holder):
                continue
            if self._locks.has_donated(op.obj, holder):
                debts = self._indebted_to.setdefault(op.tx, set())
                debts.add(holder)
                # Wakes are transitive in [SGMA87]: borrowing from a
                # transaction that is itself in a wake places the borrower
                # in the outer wake too.
                debts.update(self._indebted_to.get(holder, ()))
                debts.discard(op.tx)

    def _maybe_donate(self, op: Operation) -> None:
        """Donate the object if this was the holder's last use of it."""
        if self._last_use[op.tx].get(op.obj) == op.index:
            self._locks.donate(op.obj, op.tx)

    def donation_edges(self) -> tuple[tuple[int, str, None], ...]:
        """Wake donations: ``(donor, object, None)`` — donated to anyone
        in the donor's wake, so there is no single beneficiary."""
        return tuple(
            (donor, obj, None) for donor, obj in self._locks.donated_items()
        )

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

    def _on_finish(self, tx_id: int) -> None:
        self._locks.release_all(tx_id)
        self._waiting_on.pop(tx_id, None)
        # The committed transaction's debt edges *and* the taints
        # anchored to it are deliberately kept: commit pins its place in
        # the serialization order, and the wake acyclicity check
        # (:meth:`_wake_creditors` via :meth:`_conflicting_taint_donors`)
        # must still see chains that pass through committed middlemen —
        # a creditor of the committed donor must never serialize after
        # its wake data.  For everyone else the committed donor's taints
        # are inert (skipped in :meth:`_conflicting_taint_donors`).

    def _on_remove(self, tx_id: int) -> None:
        self._locks.release_all(tx_id)
        self._waiting_on.pop(tx_id, None)
        self._indebted_to.pop(tx_id, None)
        # Transactions indebted to the victim lose nothing: its locks are
        # gone, so the debt is moot.
        for debts in self._indebted_to.values():
            debts.discard(tx_id)
        # The victim's history is undone, so both the wakes it anchored
        # and the taints its accesses contributed disappear.
        self._drop_taint_donor(tx_id)
        for by_donor in list(self._taint.values()):
            for donor, contributors in list(by_donor.items()):
                contributors.pop(tx_id, None)
                if not contributors:
                    del by_donor[donor]
        self._prune_taint()

    def _on_discard(self, tx_id: int) -> None:
        self._last_use.pop(tx_id, None)
        self._access_set.pop(tx_id, None)
        # Parked waiters must not keep a gone transaction as a blocker
        # (see TwoPhaseLockingScheduler._on_discard).
        for blockers in self._waiting_on.values():
            blockers.discard(tx_id)

    def _drop_taint_donor(self, tx_id: int) -> None:
        for by_donor in self._taint.values():
            by_donor.pop(tx_id, None)
        self._prune_taint()

    def _prune_taint(self) -> None:
        for obj in list(self._taint):
            if not self._taint[obj]:
                del self._taint[obj]
