"""The scheduler interface the simulator drives.

Protocols are *pre-declared-transaction* schedulers: :meth:`Scheduler.
admit` announces a transaction's full operation list before any of its
operations run.  This matches the paper's model — relative atomicity
specifications are given per transaction instance, so the system
legitimately knows each transaction's program (the altruistic baseline
additionally needs declared access sets, and the RSGT protocol needs the
spec's atomic units, both of which are static properties of the declared
program).

Lifecycle, as driven by :mod:`repro.sim`::

    admit(T)           once per transaction (ids stay admitted across
                       restarts; a restart just clears executed state)
    request(op)        -> GRANT (op executed now) | WAIT (retry later)
                       | ABORT (victims must restart)
    finish(tx_id)      the transaction executed its last op; commit it
    remove(tx_id)      forget a victim's executed operations (restart)
    discard(tx_id)     remove a transaction for good (it never restarts)
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

from repro.core.operations import Operation
from repro.core.transactions import Transaction
from repro.errors import ProtocolError
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import EventKind, Reason

__all__ = ["Decision", "Outcome", "Scheduler"]


class Decision(enum.Enum):
    """What a scheduler says about an operation request."""

    GRANT = "grant"
    WAIT = "wait"
    ABORT = "abort"


#: Trace-event kind emitted for each decision.
_DECISION_EVENTS = {
    Decision.GRANT: EventKind.GRANT,
    Decision.WAIT: EventKind.WAIT,
    Decision.ABORT: EventKind.ABORT,
}

_REQUEST = EventKind.REQUEST


@dataclass(frozen=True)
class Outcome:
    """A scheduling decision plus, for aborts, who must restart.

    Every non-grant outcome carries a machine-readable :class:`~repro.
    obs.events.Reason` naming its cause (the lock conflict, the donor
    debt, the RSG cycle).  The reason is provenance, not identity:
    outcomes compare equal irrespective of it.
    """

    decision: Decision
    victims: tuple[int, ...] = ()
    reason: Reason | None = field(default=None, compare=False)

    @classmethod
    def grant(cls) -> "Outcome":
        return cls(Decision.GRANT)

    @classmethod
    def wait(cls, reason: Reason | None = None) -> "Outcome":
        return cls(Decision.WAIT, reason=reason)

    @classmethod
    def abort(cls, *victims: int, reason: Reason | None = None) -> "Outcome":
        return cls(Decision.ABORT, tuple(victims), reason=reason)


@dataclass
class _AdmittedTransaction:
    """Book-keeping shared by all schedulers."""

    transaction: Transaction
    executed: int = 0  # operations granted so far (in program order)
    committed: bool = False
    restarts: int = 0
    extras: dict = field(default_factory=dict)


class Scheduler(abc.ABC):
    """Base class with the shared admission/progress book-keeping.

    Subclasses implement :meth:`_decide` (policy for the next operation)
    plus the state hooks :meth:`_on_grant`, :meth:`_on_finish`, and
    :meth:`_on_remove`.

    A built-in **deadlock/livelock watchdog** guards every protocol: when
    :attr:`watchdog_threshold` consecutive requests come back WAIT with
    no GRANT in between (the signature of a wait cycle or an all-WAIT
    stall), the next WAIT is converted into an ABORT of a victim — the
    live transaction holding the least progress (fewest granted
    operations, lowest id as tie-break) among those that actually hold
    resources.  Aborting a zero-progress transaction would release
    nothing, so if only zero-progress transactions are live the WAIT
    stands and the simulator's stall guard takes over.  Set
    ``watchdog_threshold`` to ``None`` (class- or instance-level) to
    disable.
    """

    #: Human-readable protocol name (overridden by subclasses).
    name = "abstract"

    #: Consecutive zero-grant WAITs tolerated before a victim is picked.
    #: High enough that normal contention never trips it; fault
    #: campaigns lower it per instance.
    watchdog_threshold: int | None = 256

    def __init__(self) -> None:
        self._admitted: dict[int, _AdmittedTransaction] = {}
        self._history: list[Operation] = []  # granted ops, in grant order
        self._waits_since_grant = 0
        self._watchdog_fires = 0
        self._bus: TraceBus = NULL_BUS

    @property
    def bus(self) -> TraceBus:
        """The trace bus this scheduler emits events to (inert default)."""
        return self._bus

    @bus.setter
    def bus(self, bus: TraceBus) -> None:
        self._bus = bus
        self._on_bus_change(bus)

    def _on_bus_change(self, bus: TraceBus) -> None:
        """Hook for subclasses that own sub-emitters (e.g. a certifier)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def admit(self, transaction: Transaction) -> None:
        """Declare a transaction (full program) before it runs."""
        if transaction.tx_id in self._admitted:
            raise ProtocolError(
                f"T{transaction.tx_id} is already admitted"
            )
        self._admitted[transaction.tx_id] = _AdmittedTransaction(transaction)
        self._on_admit(transaction)

    def request(self, op: Operation) -> Outcome:
        """Ask to execute ``op`` (the requester's next program operation)."""
        state = self._state_of(op.tx)
        if state.committed:
            raise ProtocolError(f"T{op.tx} has already committed")
        expected = state.transaction[state.executed]
        if op != expected:
            raise ProtocolError(
                f"out-of-order request: T{op.tx} must run "
                f"{expected.label} next, got {op.label}"
            )
        bus = self._bus
        # One None check on the prebound dispatch replaces the
        # ``active`` flag here: the same gate, and the traced branch
        # then delivers with a single call (no fan-out loop for the
        # common one-sink case).
        dispatch = bus._dispatch
        if dispatch is not None:
            # Inlined bus.emit: this site and the decision site below
            # run for every request of every traced run, and the two
            # call frames alone are a measurable slice of the <10%
            # tracing budget bench_obs gates.  Must mirror
            # TraceBus.emit's raw-tuple event layout.  The shared
            # fields are hoisted once for both sites.
            tx = op.tx
            label = op.label
            name = self.name
            seq = bus._seq
            bus._seq = seq + 1
            dispatch(
                (seq, bus._tick, _REQUEST, tx, label, name, None, ()),
            )
        outcome = self._decide(op)
        if outcome.decision is Decision.GRANT:
            state.executed += 1
            self._history.append(op)
            self._on_grant(op)
            self._waits_since_grant = 0
        elif outcome.decision is Decision.ABORT:
            # Victims restart, which releases resources: progress enough
            # to reset the stall counter.
            self._waits_since_grant = 0
        else:
            self._waits_since_grant += 1
            if (
                self.watchdog_threshold is not None
                and self._waits_since_grant >= self.watchdog_threshold
            ):
                victim = self._watchdog_victim()
                if victim is not None:
                    self._waits_since_grant = 0
                    self._watchdog_fires += 1
                    reason = Reason(
                        "watchdog",
                        blockers=(victim,),
                        detail=(
                            f"{self.watchdog_threshold} consecutive "
                            "zero-grant WAITs"
                        ),
                    )
                    if dispatch is not None:
                        bus.emit(
                            EventKind.WATCHDOG,
                            tx=op.tx,
                            op=op.label,
                            protocol=self.name,
                            reason=reason,
                        )
                    outcome = Outcome.abort(victim, reason=reason)
        if dispatch is not None:
            # Inlined bus.emit — see the request-event site above.
            extra = (
                (("victims", list(outcome.victims)),)
                if outcome.victims
                else ()
            )
            seq = bus._seq
            bus._seq = seq + 1
            dispatch(
                (
                    seq, bus._tick, _DECISION_EVENTS[outcome.decision],
                    tx, label, name, outcome.reason, extra,
                ),
            )
        return outcome

    def finish(self, tx_id: int) -> None:
        """Commit a transaction that executed all of its operations."""
        state = self._state_of(tx_id)
        if state.executed != len(state.transaction):
            raise ProtocolError(
                f"T{tx_id} cannot commit with "
                f"{len(state.transaction) - state.executed} operations left"
            )
        state.committed = True
        self._on_finish(tx_id)
        if self._bus.active:
            self._bus.emit(
                EventKind.COMMIT, tx=tx_id, protocol=self.name
            )

    def remove(self, tx_id: int) -> None:
        """Forget a victim's executed operations (it will restart)."""
        state = self._state_of(tx_id)
        if state.committed:
            raise ProtocolError(f"cannot remove committed T{tx_id}")
        # The history holds exactly this incarnation's executed prefix
        # of tx_id (earlier incarnations were removed, and committed
        # transactions never get here), so filtering on the id is
        # exact and hashes no Operation.
        if state.executed:
            self._history = [op for op in self._history if op.tx != tx_id]
        state.executed = 0
        state.restarts += 1
        self._on_remove(tx_id)

    def discard(self, tx_id: int) -> None:
        """Remove an uncommitted transaction for good.

        :meth:`remove` keeps the victim admitted so that it can restart;
        a transaction that will never run again (an aborted service
        session) goes through here instead, which also drops its
        admission and any per-transaction protocol state, so nothing
        of it outlives the abort.
        """
        self.remove(tx_id)
        del self._admitted[tx_id]
        self._on_discard(tx_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def history(self) -> tuple[Operation, ...]:
        """Granted operations of live/committed incarnations, in order."""
        return tuple(self._history)

    @property
    def admitted_ids(self) -> frozenset[int]:
        """Ids of all admitted transactions."""
        return frozenset(self._admitted)

    @property
    def watchdog_fires(self) -> int:
        """How many times the stall watchdog converted a WAIT to ABORT."""
        return self._watchdog_fires

    def _watchdog_victim(self) -> int | None:
        """Deterministic victim choice for the stall watchdog.

        The live transaction with the fewest granted operations among
        those with at least one (lowest id as tie-break) — cheapest to
        redo while still releasing something.
        """
        candidates = [
            (state.executed, tx_id)
            for tx_id, state in self._admitted.items()
            if not state.committed and state.executed > 0
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def wait_edges(self) -> dict[int, tuple[int, ...]]:
        """The current waits-for edges, waiter -> sorted blocker ids.

        Protocols that track blocking (the lock-based family) record a
        ``_waiting_on`` mapping; pure certification protocols never
        block, so the default is empty.  The simulator uses this to name
        the *blocking* side of a livelock diagnostic.
        """
        waiting = getattr(self, "_waiting_on", None)
        if not waiting:
            return {}
        return {
            waiter: tuple(sorted(blockers))
            for waiter, blockers in sorted(waiting.items())
        }

    def donation_edges(self) -> tuple[tuple[int, str, int], ...]:
        """Live donations as ``(donor, object, beneficiary)`` triples.

        Only the altruistic-locking family donates; the default is
        empty.  The beneficiary is ``None`` when the object is donated
        to the donor's whole wake rather than a specific observer.
        Overrides must return the triples sorted, so the ``inspect``
        service verb renders them deterministically.
        """
        return ()

    def _rsg_summary(self) -> dict[str, object] | None:
        """Census of the in-flight RSG, for protocols that keep one.

        Certification-backed protocols override this to forward
        :meth:`~repro.protocols.certifier.RsgCertifier.rsg_summary`;
        ``None`` means "no graph" and the ``inspect`` snapshot reports
        ``rsg: null``.
        """
        return None

    def snapshot(self) -> dict[str, object]:
        """A point-in-time introspection view of the scheduler.

        The live wait-for/donation state plus an RSG census, shaped for
        JSON: ``waits_for`` is keyed by stringified waiter id (JSON
        objects cannot carry integer keys), donations are rendered as
        ``{"donor", "obj", "to"}`` records.  Read-only and O(live
        state); the service's ``inspect`` verb calls this per tenant.
        """
        live = sum(
            1 for state in self._admitted.values() if not state.committed
        )
        return {
            "protocol": self.name,
            "admitted": len(self._admitted),
            "live": live,
            "committed": len(self._admitted) - live,
            "waits_for": {
                str(waiter): list(blockers)
                for waiter, blockers in self.wait_edges().items()
            },
            "donations": [
                {"donor": donor, "obj": obj, "to": beneficiary}
                for donor, obj, beneficiary in self.donation_edges()
            ],
            "watchdog_fires": self._watchdog_fires,
            "rsg": self._rsg_summary(),
        }

    def progress(self, tx_id: int) -> int:
        """How many operations of ``T{tx_id}`` have been granted."""
        return self._state_of(tx_id).executed

    def is_committed(self, tx_id: int) -> bool:
        """Whether ``T{tx_id}`` has committed."""
        return self._state_of(tx_id).committed

    def transaction(self, tx_id: int) -> Transaction:
        """The declared program of ``T{tx_id}``."""
        return self._state_of(tx_id).transaction

    def _state_of(self, tx_id: int) -> _AdmittedTransaction:
        try:
            return self._admitted[tx_id]
        except KeyError:
            raise ProtocolError(f"T{tx_id} was never admitted") from None

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_admit(self, transaction: Transaction) -> None:
        """Called after a transaction is admitted (optional hook)."""

    @abc.abstractmethod
    def _decide(self, op: Operation) -> Outcome:
        """The protocol's policy for the next operation of a transaction."""

    def _on_grant(self, op: Operation) -> None:
        """Called after ``op`` was granted and recorded (optional hook)."""

    def _on_finish(self, tx_id: int) -> None:
        """Called after a transaction commits (optional hook)."""

    def _on_remove(self, tx_id: int) -> None:
        """Called after a victim's executed state was dropped (optional)."""

    def _on_discard(self, tx_id: int) -> None:
        """Called after :meth:`discard` dropped the admission (optional)."""
