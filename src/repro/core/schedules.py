"""Schedules: interleaved executions of a set of transactions.

A schedule over ``T = {T1, ..., Tn}`` is an interleaved sequence of *all*
operations of the transactions in ``T`` that preserves each transaction's
program order (Section 2 of the paper).  This module also implements the
conflict relation and conflict equivalence, the notions the whole
correctness theory is built on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.core.operations import Operation
from repro.core.transactions import Transaction, as_transaction_map
from repro.errors import InvalidScheduleError

__all__ = ["Schedule", "conflicts", "conflict_equivalent", "conflict_pairs"]


class Schedule:
    """A totally ordered interleaving of a transaction set's operations.

    Construction validates the two structural requirements from the paper:
    the schedule contains *exactly* the operations of the given
    transactions (each once), and operations of each transaction appear in
    program order.

    Args:
        transactions: the transaction set ``T``.
        order: the interleaved operation sequence.  Operations must be the
            bound operations of the given transactions (compare equal to
            them); notation strings such as ``"r1[x]"`` are also accepted
            and resolved against the transaction set by
            :meth:`from_notation`.
        complete: require every operation of every transaction to appear
            (the paper's definition).  :meth:`prefix` relaxes this to
            build growing prefixes for the incremental machinery.
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        order: Iterable[Operation],
        *,
        complete: bool = True,
    ) -> None:
        self._transactions = as_transaction_map(transactions)
        self._order: tuple[Operation, ...] = tuple(order)
        self._position: dict[Operation, int] = {}
        self._complete = complete
        self._validate()

    def _validate(self) -> None:
        expected: set[Operation] = set()
        for transaction in self._transactions.values():
            expected.update(transaction.operations)

        next_index: dict[int, int] = {tx_id: 0 for tx_id in self._transactions}
        for position, op in enumerate(self._order):
            if op in self._position:
                raise InvalidScheduleError(
                    f"operation {op!r} appears twice in the schedule"
                )
            if op not in expected:
                raise InvalidScheduleError(
                    f"operation {op!r} does not belong to the transaction set"
                )
            if op.index != next_index[op.tx]:
                raise InvalidScheduleError(
                    f"operation {op!r} appears out of program order "
                    f"(expected index {next_index[op.tx]} of T{op.tx})"
                )
            next_index[op.tx] += 1
            self._position[op] = position

        if self._complete and len(self._order) != len(expected):
            missing = expected.difference(self._order)
            sample = ", ".join(sorted(op.label for op in missing)[:5])
            raise InvalidScheduleError(
                f"schedule is missing {len(missing)} operation(s): {sample}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_notation(
        cls, transactions: Sequence[Transaction], text: str
    ) -> "Schedule":
        """Build a schedule from whitespace-separated ``r1[x]`` notation.

        Each token must name a transaction id; the operation's program
        index is inferred by matching the next unconsumed operation of that
        transaction (the paper's notation never repeats an identical
        operation ambiguously, and if a transaction does repeat an
        operation, program order disambiguates).

        Example::

            Schedule.from_notation(
                [t1, t2], "r2[y] r1[x] w1[x] w2[y] r2[x] w1[z] r1[y]"
            )
        """
        from repro.core.operations import parse_operation

        by_id = as_transaction_map(transactions)
        cursor = {tx_id: 0 for tx_id in by_id}
        order: list[Operation] = []
        for token in text.split():
            parsed = parse_operation(token)
            if parsed.tx is None:
                raise InvalidScheduleError(
                    f"schedule notation must carry transaction ids: {token!r}"
                )
            if parsed.tx not in by_id:
                raise InvalidScheduleError(
                    f"unknown transaction T{parsed.tx} in token {token!r}"
                )
            transaction = by_id[parsed.tx]
            index = cursor[parsed.tx]
            if index >= len(transaction):
                raise InvalidScheduleError(
                    f"too many operations for T{parsed.tx}: {token!r}"
                )
            expected = transaction[index]
            if expected.op_type != parsed.op_type or expected.obj != parsed.obj:
                raise InvalidScheduleError(
                    f"token {token!r} does not match the next operation of "
                    f"T{parsed.tx} (expected {expected.label})"
                )
            order.append(expected)
            cursor[parsed.tx] += 1
        return cls(transactions, order)

    @classmethod
    def serial(
        cls, transactions: Sequence[Transaction], tx_order: Sequence[int] | None = None
    ) -> "Schedule":
        """The serial schedule executing transactions in ``tx_order``.

        With ``tx_order=None``, transactions run in ascending id order.
        """
        by_id = as_transaction_map(transactions)
        if tx_order is None:
            tx_order = sorted(by_id)
        order: list[Operation] = []
        for tx_id in tx_order:
            if tx_id not in by_id:
                raise InvalidScheduleError(f"unknown transaction T{tx_id}")
            order.extend(by_id[tx_id].operations)
        return cls(transactions, order)

    @classmethod
    def prefix(
        cls, transactions: Sequence[Transaction], order: Iterable[Operation]
    ) -> "Schedule":
        """A schedule *prefix*: program order enforced, completeness not.

        Prefixes are what the online protocols and the incremental RSG
        machinery grow one granted operation at a time; every other
        schedule query (positions, projections, conflicts) works on
        them unchanged.
        """
        return cls(transactions, order, complete=False)

    def reordered(self, order: Iterable[Operation]) -> "Schedule":
        """A new schedule over the same transactions with a new order."""
        return Schedule(
            list(self._transactions.values()), order, complete=self._complete
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> dict[int, Transaction]:
        """The transaction set, indexed by id (do not mutate)."""
        return self._transactions

    @property
    def transaction_list(self) -> list[Transaction]:
        """The transactions in ascending id order."""
        return [self._transactions[tx_id] for tx_id in sorted(self._transactions)]

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The operations in schedule order."""
        return self._order

    def position(self, op: Operation) -> int:
        """The zero-based schedule position of ``op``."""
        try:
            return self._position[op]
        except KeyError:
            raise InvalidScheduleError(f"operation {op!r} not in schedule") from None

    def precedes(self, first: Operation, second: Operation) -> bool:
        """Whether ``first`` occurs before ``second`` in this schedule."""
        return self.position(first) < self.position(second)

    def projection(self, tx_id: int) -> tuple[Operation, ...]:
        """The operations of ``T{tx_id}`` in schedule (= program) order."""
        if tx_id not in self._transactions:
            raise InvalidScheduleError(f"unknown transaction T{tx_id}")
        return tuple(op for op in self._order if op.tx == tx_id)

    @property
    def is_complete(self) -> bool:
        """Whether every operation of every transaction appears."""
        if self._complete:
            return True
        total = sum(len(tx) for tx in self._transactions.values())
        return len(self._order) == total

    @property
    def is_serial(self) -> bool:
        """Whether transactions run one after another without interleaving."""
        seen_complete: set[int] = set()
        current: int | None = None
        remaining = 0
        for op in self._order:
            if op.tx != current:
                if op.tx in seen_complete:
                    return False
                if current is not None and remaining != 0:
                    return False
                current = op.tx
                remaining = len(self._transactions[op.tx])
            remaining -= 1
            if remaining == 0:
                seen_complete.add(op.tx)
        return True

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._order)

    def __getitem__(self, position: int) -> Operation:
        return self._order[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._order == other._order

    def __hash__(self) -> int:
        return hash(self._order)

    def __str__(self) -> str:
        return " ".join(op.label for op in self._order)

    def __repr__(self) -> str:
        return f"Schedule({self!s})"


def conflicts(first: Operation, second: Operation) -> bool:
    """The paper's conflict relation (same object, different transactions,
    at least one write)."""
    return first.conflicts_with(second)


def conflict_pairs(schedule: Schedule) -> list[tuple[Operation, Operation]]:
    """All ordered conflicting pairs ``(a, b)`` with ``a`` before ``b``.

    Quadratic in schedule length, which is exactly the cost of the
    textbook definition; fine for the sizes the theory tools handle.
    """
    ops = schedule.operations
    pairs: list[tuple[Operation, Operation]] = []
    for i, first in enumerate(ops):
        for second in ops[i + 1:]:
            if conflicts(first, second):
                pairs.append((first, second))
    return pairs


def conflict_equivalent(first: Schedule, second: Schedule) -> bool:
    """Whether two schedules order every conflicting pair identically.

    The schedules must be over the same operations (hence the same
    transaction set); otherwise they are not comparable and ``False`` is
    returned.
    """
    if set(first.operations) != set(second.operations):
        return False
    for a, b in conflict_pairs(first):
        if not second.precedes(a, b):
            return False
    return True
