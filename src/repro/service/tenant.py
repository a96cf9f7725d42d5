"""A tenant: one namespace = one scheduler + one WAL-backed store + one
growable relative-atomicity spec.

Tenants are the service's unit of isolation.  Each owns a
:class:`~repro.engine.kvstore.KVStore`, a protocol scheduler built by
:func:`repro.protocols.make_scheduler`, a
:class:`~repro.core.atomicity.RelativeAtomicitySpec` grown one
transaction at a time as sessions arrive (see
:meth:`~repro.core.atomicity.RelativeAtomicitySpec.declare_transaction`),
and an ``asyncio.Lock`` serialising all scheduler/store mutation — the
schedulers are synchronous single-writer machines, and the lock is what
makes thousands of concurrent connections present them a legal history.

All methods here are synchronous and must be called with the tenant
lock held; the async orchestration (WAIT retries, deadlines, drain)
lives in :mod:`~repro.service.server`.

The tenant also owns the **survivor invariant** check
(:meth:`Tenant.certify`): the committed projection of the scheduler's
history must be relatively serializable under
``spec.restricted_to(survivors)``, and — once quiesced — the live
store's state must equal a fault-free replay of exactly the survivors,
plus the Theorem 1 witness replay.  This is the same certificate the
offline fault campaigns compute, applied to a live server.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.engine.executor import ScheduleExecutor, Semantics
from repro.engine.kvstore import KVStore
from repro.errors import NotationError, ReproError, SpecError
from repro.obs.events import EventKind
from repro.protocols import make_scheduler
from repro.protocols.base import Decision
from repro.service import wire
from repro.service.session import Session, SessionState

__all__ = [
    "CertificationResult",
    "RequestRefused",
    "SPEC_PROTOCOLS",
    "StepResult",
    "Tenant",
]

#: Protocols that enforce a relative atomicity spec (and therefore may
#: accept per-session breakpoint declarations).
SPEC_PROTOCOLS = frozenset({"rel-locking", "rsgt"})


class RequestRefused(ReproError):
    """A request the tenant rejects without touching scheduler state.

    Carries the wire error code so the server can answer structurally.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class StepResult:
    """Outcome of one operation step, pre-digested for the server.

    Attributes:
        status: ``"granted"`` / ``"wait"`` / ``"aborted"``.
        op_label: the operation's notation label (``r3[x]``).
        value: the read result or written value (granted steps only).
        reason: machine-readable cause for wait/abort outcomes.
        closed: sessions the step closed (protocol victims), for the
            server to release admission slots on.
        self_aborted: whether the requesting session is among the dead.
    """

    status: str
    op_label: str = ""
    value: Any = None
    reason: str = ""
    closed: tuple[Session, ...] = ()
    self_aborted: bool = False


@dataclass(frozen=True)
class CertificationResult:
    """The survivor invariant, evaluated against the live tenant.

    ``state_ok`` / ``witness_ok`` are ``None`` when the tenant was not
    quiesced (in-flight sessions make the store legitimately diverge
    from any committed-only replay) or, for ``witness_ok``, when the
    projection is not certifiable.
    """

    tenant: str
    protocol: str
    survivors: tuple[int, ...]
    certified: bool
    quiesced: bool
    state_ok: bool | None
    witness_ok: bool | None

    @property
    def ok(self) -> bool:
        """No invariant violated (unchecked state counts as intact)."""
        return (
            self.certified
            and self.state_ok is not False
            and self.witness_ok is not False
        )

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "protocol": self.protocol,
            "survivors": list(self.survivors),
            "committed": len(self.survivors),
            "certified": self.certified,
            "quiesced": self.quiesced,
            "state_ok": self.state_ok,
            "witness_ok": self.witness_ok,
            "ok": self.ok,
        }


class Tenant:
    """One isolated namespace of the service (see module docstring).

    Args:
        name: tenant name (the wire-level namespace key).
        protocol: canonical protocol name (``PROTOCOL_NAMES``).
        initial: seed objects for the store.
        watchdog_threshold: scheduler stall watchdog override.
        max_program_ops: longest program a ``begin`` may declare.
    """

    def __init__(
        self,
        name: str,
        protocol: str,
        initial: dict[str, Any] | None = None,
        *,
        watchdog_threshold: int | None = 64,
        max_program_ops: int = 64,
    ) -> None:
        self.name = name
        self.protocol = protocol
        self.initial_state: dict[str, Any] = dict(initial or {})
        self.store = KVStore(self.initial_state)
        self.spec = RelativeAtomicitySpec([])
        self.scheduler = make_scheduler(
            protocol, self.spec if protocol in SPEC_PROTOCOLS else None
        )
        self.scheduler.watchdog_threshold = watchdog_threshold
        self.max_program_ops = max_program_ops
        self.lock = asyncio.Lock()
        self.sessions: dict[int, Session] = {}
        self.committed: dict[int, Transaction] = {}
        #: tx_id -> close cause, for post-mortem error messages.
        self.closed: dict[int, str] = {}
        #: (tx_id, op_index) -> value actually written, for replay.
        self.write_values: dict[tuple[int, int], Any] = {}
        self.crashes = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def new_session(
        self,
        tx_id: int,
        program: str,
        cuts: tuple[int, ...],
        *,
        now: float,
        deadline: float,
    ) -> Session:
        """Declare and admit a fresh transaction; returns its session.

        ``tx_id`` is assigned by the server (globally unique, so wire
        requests can name a session without repeating the tenant).

        Raises:
            RequestRefused: malformed program, cuts out of range, or
                cuts declared against a protocol that ignores them.
        """
        if cuts and self.protocol not in SPEC_PROTOCOLS:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"protocol {self.protocol!r} does not enforce relative "
                "atomicity; declare no cuts or use rel-locking/rsgt",
            )
        try:
            transaction = Transaction.from_notation(tx_id, program)
        except (NotationError, ReproError) as exc:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, f"bad program: {exc}"
            ) from exc
        if len(transaction) > self.max_program_ops:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"program declares {len(transaction)} ops; the tenant "
                f"caps programs at {self.max_program_ops}",
            )
        try:
            self.spec.declare_transaction(transaction, cuts)
        except SpecError as exc:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, f"bad cuts: {exc}"
            ) from exc
        self.scheduler.admit(transaction)
        bus = self.scheduler.bus
        if bus.active:
            # Service-lifecycle events carry the tenant name so the
            # flight recorder can ring-key them; admission opens the
            # transaction's lifecycle span.
            bus.emit(
                EventKind.ADMIT,
                tx=tx_id,
                protocol=self.protocol,
                extra=(("tenant", self.name),),
            )
        session = Session(
            tx_id=tx_id,
            tenant=self.name,
            transaction=transaction,
            deadline=deadline,
            started=now,
        )
        self.sessions[tx_id] = session
        return session

    def step(
        self,
        session: Session,
        *,
        value: Any = None,
        expect: str | None = None,
        obj: str | None = None,
    ) -> StepResult:
        """Submit the session's next operation to the scheduler.

        ``expect`` (``"r"``/``"w"``) and ``obj`` let read/write verbs
        assert they are where they think they are in the program; a
        mismatch refuses the request without consuming the operation.
        """
        if session.remaining_ops == 0:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                "program exhausted; commit or abort the session",
            )
        op = session.transaction[session.cursor]
        if expect is not None and op.op_type.value != expect:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"next operation is {op.label}, not a {expect!r}",
            )
        if obj is not None and op.obj != obj:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"next operation is {op.label}, not on {obj!r}",
            )
        if op.is_read and op.obj not in self.store:
            # Refuse before the scheduler sees the op: a granted read
            # that then failed in the store would corrupt the history.
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"object {op.obj!r} does not exist in tenant "
                f"{self.name!r}",
            )
        outcome = self.scheduler.request(op)
        reason = outcome.reason.code if outcome.reason else ""
        if outcome.decision is Decision.WAIT:
            return StepResult("wait", op_label=op.label, reason=reason)
        if outcome.decision is Decision.ABORT:
            closed = tuple(
                self._kill(victim, reason or "protocol-abort")
                for victim in outcome.victims
                if victim in self.sessions
            )
            return StepResult(
                "aborted",
                op_label=op.label,
                reason=reason,
                closed=closed,
                self_aborted=not session.is_open,
            )
        # GRANT: apply to the store.
        if not session.begun_in_store:
            self.store.begin(session.tx_id)
            session.begun_in_store = True
        if op.is_read:
            result = self.store.read(session.tx_id, op.obj)
        else:
            result = (
                value
                if value is not None
                else f"T{session.tx_id}.{session.cursor}"
            )
            self.store.write(session.tx_id, op.obj, result)
            self.write_values[(session.tx_id, session.cursor)] = result
        session.cursor += 1
        bus = self.scheduler.bus
        if bus.active:
            # The WAL-apply instant completes the op's lifecycle: the
            # scheduler's GRANT said "legal", this says "done".
            bus.emit(
                EventKind.APPLY,
                tx=session.tx_id,
                op=op.label,
                protocol=self.protocol,
                extra=(("tenant", self.name),),
            )
        return StepResult("granted", op_label=op.label, value=result)

    def commit(self, session: Session) -> None:
        """Finish the session: scheduler commit + store WAL merge."""
        if session.remaining_ops:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"{session.remaining_ops} declared ops not yet "
                "executed; a session commits only complete programs",
            )
        self.scheduler.finish(session.tx_id)
        if session.begun_in_store:
            self.store.commit(session.tx_id)
        session.close(SessionState.COMMITTED)
        self.committed[session.tx_id] = session.transaction
        del self.sessions[session.tx_id]
        self.closed[session.tx_id] = "committed"

    def abort(self, session: Session, reason: str) -> None:
        """Abort-and-undo an open session (voluntary, deadline, drain,
        disconnect)."""
        self._kill(session.tx_id, reason)

    def _kill(self, tx_id: int, reason: str) -> Session:
        # A dead session never restarts (its client begins a new one),
        # so the scheduler drops it for good rather than keeping it
        # admitted for a restart.
        session = self.sessions[tx_id]
        self.scheduler.discard(tx_id)
        if (
            session.begun_in_store
            and tx_id in self.store.open_transactions
        ):
            self.store.abort(tx_id)
        session.close(SessionState.ABORTED, reason)
        del self.sessions[tx_id]
        self.closed[tx_id] = reason
        return session

    def crash(self) -> tuple[Session, ...]:
        """Crash-and-recover the store; every in-flight session dies.

        Mirrors :class:`~repro.faults.injector.FaultInjector`'s CRASH
        handling: the WAL rolls everything back in one sweep, then the
        sessions that had granted operations are removed from the
        scheduler.  Admitted sessions with no progress survive — they
        have no store state to lose.
        """
        self.store.crash()
        self.store.recover()
        self.crashes += 1
        closed = []
        for tx_id in sorted(self.sessions):
            session = self.sessions[tx_id]
            if session.cursor == 0:
                continue
            self.scheduler.discard(tx_id)
            session.begun_in_store = False
            session.close(SessionState.ABORTED, "store-crash")
            del self.sessions[tx_id]
            self.closed[tx_id] = "store-crash"
            closed.append(session)
        return tuple(closed)

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    def certify(self) -> CertificationResult:
        """Evaluate the survivor invariant against the live history."""
        survivors = tuple(sorted(self.committed))
        committed_set = frozenset(survivors)
        quiesced = not self.sessions
        projection = Schedule(
            [self.committed[tx_id] for tx_id in survivors],
            tuple(
                op
                for op in self.scheduler.history
                if op.tx in committed_set
            ),
        )
        rsg: RelativeSerializationGraph | None = None
        certified = True
        if survivors:
            rsg = RelativeSerializationGraph(
                projection, self.spec.restricted_to(survivors)
            )
            certified = rsg.is_acyclic
        state_ok: bool | None = None
        witness_ok: bool | None = None
        if quiesced:
            semantics = Semantics(
                {
                    key: (lambda _cur, _reads, v=value: v)
                    for key, value in self.write_values.items()
                    if key[0] in committed_set
                }
            )
            live = self.store.snapshot()
            replay = ScheduleExecutor(self.initial_state, semantics).run(
                projection
            )
            state_ok = replay.final_state == live
            if certified and rsg is not None:
                witness = rsg.equivalent_relatively_serial_schedule()
                witness_ok = (
                    ScheduleExecutor(self.initial_state, semantics)
                    .run(witness)
                    .final_state
                    == live
                )
            elif certified:
                witness_ok = state_ok
        return CertificationResult(
            tenant=self.name,
            protocol=self.protocol,
            survivors=survivors,
            certified=certified,
            quiesced=quiesced,
            state_ok=state_ok,
            witness_ok=witness_ok,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plain-data tenant snapshot for ``health`` responses."""
        return {
            "protocol": self.protocol,
            "open_sessions": len(self.sessions),
            "committed": len(self.committed),
            "closed": len(self.closed) - len(self.committed),
            "objects": len(self.store),
            "wal_size": self.store.wal_size(),
            "crashes": self.crashes,
        }
