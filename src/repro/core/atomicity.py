"""Relative atomicity specifications (Section 2 of the paper).

An *atomic unit* of ``Ti`` relative to ``Tj`` is a sequence of consecutive
operations of ``Ti`` inside which no operation of ``Tj`` may execute.
``Atomicity(Ti, Tj)`` is the ordered sequence of atomic units of ``Ti``
relative to ``Tj`` — a partition of ``Ti``'s operations into consecutive
blocks.  A full :class:`RelativeAtomicitySpec` holds one such view for
every ordered pair of distinct transactions.

Representation: a view is stored as a frozen set of *breakpoints* — cut
positions ``p`` in ``1..len(Ti)-1`` meaning "``Tj`` may interleave between
operation ``p-1`` and operation ``p`` of ``Ti``" (this is exactly the
breakpoint formulation of Farrag & Özsu that the paper cites as an
equivalent way to write specifications).  Units, ``PushForward`` and
``PullBackward`` (Section 3) are derived.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.operations import Operation, parse_operation
from repro.core.transactions import Transaction, as_transaction_map
from repro.errors import InvalidSpecError, MissingSpecError

__all__ = ["AtomicUnit", "Atomicity", "RelativeAtomicitySpec"]


@dataclass(frozen=True, slots=True)
class AtomicUnit:
    """One atomic unit: operations ``start..end`` (inclusive) of ``T{tx}``.

    ``ordinal`` is the unit's one-based rank inside its view, matching the
    paper's ``AtomicUnit(k, Ti, Tj)`` notation.
    """

    tx: int
    ordinal: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise InvalidSpecError(
                f"atomic unit of T{self.tx} has start {self.start} > end {self.end}"
            )

    def contains_index(self, index: int) -> bool:
        """Whether program position ``index`` of ``T{tx}`` is in this unit."""
        return self.start <= index <= self.end

    def contains(self, op: Operation) -> bool:
        """Whether ``op`` (an operation of ``T{tx}``) is in this unit."""
        return op.tx == self.tx and op.index is not None and self.contains_index(op.index)

    def operations(self, transaction: Transaction) -> tuple[Operation, ...]:
        """The unit's operations, given its owning transaction."""
        if transaction.tx_id != self.tx:
            raise InvalidSpecError(
                f"unit belongs to T{self.tx}, not T{transaction.tx_id}"
            )
        return transaction.operations[self.start:self.end + 1]

    @property
    def size(self) -> int:
        """Number of operations in the unit."""
        return self.end - self.start + 1

    def __str__(self) -> str:
        return f"unit#{self.ordinal}(T{self.tx}[{self.start}..{self.end}])"


class Atomicity:
    """``Atomicity(Ti, Tj)``: how ``Ti`` partitions into units seen by ``Tj``.

    Args:
        tx: id of the transaction being partitioned (``Ti``).
        observer: id of the transaction the view is relative to (``Tj``).
        length: number of operations of ``Ti``.
        breakpoints: cut positions, each in ``1..length-1``.  The empty set
            is absolute atomicity (one unit); the full set is the finest
            view (every operation its own unit).
    """

    def __init__(
        self,
        tx: int,
        observer: int,
        length: int,
        breakpoints: Iterable[int] = (),
    ) -> None:
        if tx == observer:
            raise InvalidSpecError(
                f"Atomicity(T{tx}, T{observer}) is not defined for a "
                "transaction relative to itself"
            )
        if length <= 0:
            raise InvalidSpecError(
                f"Atomicity(T{tx}, T{observer}) needs a positive length"
            )
        cuts = frozenset(breakpoints)
        for cut in cuts:
            if not 1 <= cut <= length - 1:
                raise InvalidSpecError(
                    f"breakpoint {cut} of Atomicity(T{tx}, T{observer}) is "
                    f"outside 1..{length - 1}"
                )
        self._tx = tx
        self._observer = observer
        self._length = length
        self._breakpoints = cuts
        self._units = self._build_units()
        # Unit lookup by operation index, precomputed once.
        self._unit_of_index: list[AtomicUnit] = []
        for unit in self._units:
            self._unit_of_index.extend([unit] * unit.size)

    def relative_to(self, observer: int) -> "Atomicity":
        """The same partition of ``Ti`` seen by another observer.

        O(1): the copy shares this view's breakpoints, unit tuple and
        index lookup (units carry no observer), which is how a spec
        derives every view of a transaction from one template.
        """
        if observer == self._observer:
            return self
        if observer == self._tx:
            raise InvalidSpecError(
                f"Atomicity(T{observer}, T{observer}) is not defined for a "
                "transaction relative to itself"
            )
        view = object.__new__(Atomicity)
        view.__dict__.update(self.__dict__)
        view._observer = observer
        return view

    def _build_units(self) -> tuple[AtomicUnit, ...]:
        cuts = sorted(self._breakpoints)
        starts = [0] + cuts
        ends = [cut - 1 for cut in cuts] + [self._length - 1]
        return tuple(
            AtomicUnit(self._tx, ordinal + 1, start, end)
            for ordinal, (start, end) in enumerate(zip(starts, ends))
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def tx(self) -> int:
        """Id of the partitioned transaction (``Ti``)."""
        return self._tx

    @property
    def observer(self) -> int:
        """Id of the observing transaction (``Tj``)."""
        return self._observer

    @property
    def length(self) -> int:
        """Number of operations of ``Ti``."""
        return self._length

    @property
    def breakpoints(self) -> frozenset[int]:
        """The cut positions."""
        return self._breakpoints

    @property
    def units(self) -> tuple[AtomicUnit, ...]:
        """The atomic units in order (``AtomicUnit(k, Ti, Tj)`` is
        ``units[k-1]``)."""
        return self._units

    @property
    def is_absolute(self) -> bool:
        """Whether the whole transaction is one atomic unit."""
        return not self._breakpoints

    @property
    def is_finest(self) -> bool:
        """Whether every operation is its own atomic unit."""
        return len(self._breakpoints) == self._length - 1

    def unit(self, ordinal: int) -> AtomicUnit:
        """``AtomicUnit(ordinal, Ti, Tj)`` — one-based, as in the paper."""
        if not 1 <= ordinal <= len(self._units):
            raise InvalidSpecError(
                f"Atomicity(T{self._tx}, T{self._observer}) has "
                f"{len(self._units)} units, no unit #{ordinal}"
            )
        return self._units[ordinal - 1]

    def unit_of(self, index: int) -> AtomicUnit:
        """The unit containing program position ``index`` of ``Ti``."""
        if not 0 <= index < self._length:
            raise InvalidSpecError(
                f"T{self._tx} has no operation index {index}"
            )
        return self._unit_of_index[index]

    def push_forward_index(self, index: int) -> int:
        """``PushForward``: the index of the *last* operation of the unit
        containing ``index`` (Section 3)."""
        return self.unit_of(index).end

    def pull_backward_index(self, index: int) -> int:
        """``PullBackward``: the index of the *first* operation of the unit
        containing ``index`` (Section 3)."""
        return self.unit_of(index).start

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, transaction: Transaction) -> str:
        """The paper's boxed-units notation, with ``|`` as unit separator.

        Example: ``r1[x] w1[x] | w1[z] r1[y]``.
        """
        if transaction.tx_id != self._tx or len(transaction) != self._length:
            raise InvalidSpecError(
                f"transaction does not match Atomicity(T{self._tx}, "
                f"T{self._observer})"
            )
        parts = [
            " ".join(op.label for op in unit.operations(transaction))
            for unit in self._units
        ]
        return " | ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atomicity):
            return NotImplemented
        return (
            self._tx == other._tx
            and self._observer == other._observer
            and self._length == other._length
            and self._breakpoints == other._breakpoints
        )

    def __hash__(self) -> int:
        return hash((self._tx, self._observer, self._length, self._breakpoints))

    def __repr__(self) -> str:
        cuts = sorted(self._breakpoints)
        return (
            f"Atomicity(T{self._tx} rel T{self._observer}, "
            f"len={self._length}, cuts={cuts})"
        )


class RelativeAtomicitySpec:
    """A full relative atomicity specification over a transaction set.

    Holds ``Atomicity(Ti, Tj)`` for every ordered pair ``i != j``.  Pairs
    not explicitly given default to *absolute* atomicity (one unit), which
    matches the safe, traditional behaviour and makes the classical model a
    trivial special case.

    Args:
        transactions: the transaction set.
        views: mapping from ``(tx, observer)`` pairs to either an
            :class:`Atomicity`, an iterable of breakpoint positions, or a
            unit-notation string such as ``"r[x] w[x] | w[z] r[y]"``.
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        views: Mapping[tuple[int, int], "Atomicity | Iterable[int] | str"] | None = None,
    ) -> None:
        self._transactions = as_transaction_map(transactions)
        # Explicit views only (construction-time ``views``); every other
        # pair derives its view from the per-transaction template.
        self._views: dict[tuple[int, int], Atomicity] = {}
        # Per-transaction breakpoint sets recorded by declare_transaction
        # (the service's interactive growth path); they apply against
        # every observer, whenever it arrives.
        self._declared_cuts: dict[int, tuple[int, ...]] = {}
        # tx_id -> the first derived view of that transaction; the view
        # for any other observer is an O(1) ``relative_to`` copy of it.
        self._templates: dict[int, Atomicity] = {}
        for (tx, observer), value in (views or {}).items():
            self._set_view(tx, observer, value)

    def declare_transaction(
        self, transaction: Transaction, cuts: Iterable[int] = ()
    ) -> None:
        """Grow the spec with one transaction arriving interactively.

        This is the transaction service's admission path: clients declare
        their program (and optionally the breakpoints they expose) at
        ``begin`` time, long after the spec object was created.  The new
        transaction's ``cuts`` become its atomicity relative to *every*
        other transaction, current and future; views of the others
        relative to it keep whatever those others declared (absolute for
        construction-time transactions), so the pairwise views are
        independent of arrival order.

        O(1) in the size of the spec: only the transaction and its cuts
        are recorded.  Each pair's view is derived on demand by
        :meth:`atomicity` from a per-transaction template, so no
        per-pair state is stored for declared transactions.

        Raises:
            InvalidSpecError: on a duplicate id or an out-of-range cut.
        """
        tx_id = transaction.tx_id
        if tx_id in self._transactions:
            raise InvalidSpecError(
                f"transaction T{tx_id} is already declared in the spec"
            )
        cut_list = tuple(sorted(set(cuts)))
        for cut in cut_list:
            if not 1 <= cut <= len(transaction) - 1:
                raise InvalidSpecError(
                    f"breakpoint {cut} of T{tx_id} is outside "
                    f"1..{len(transaction) - 1}"
                )
        self._transactions[tx_id] = transaction
        if cut_list:
            self._declared_cuts[tx_id] = cut_list

    def declared_cuts(self, tx_id: int) -> tuple[int, ...]:
        """The breakpoints recorded for ``T{tx_id}`` at declaration
        (empty for construction-time or absolute transactions)."""
        return self._declared_cuts.get(tx_id, ())

    def _set_view(
        self, tx: int, observer: int, value: "Atomicity | Iterable[int] | str"
    ) -> None:
        if tx not in self._transactions:
            raise InvalidSpecError(f"unknown transaction T{tx} in spec")
        if observer not in self._transactions:
            raise InvalidSpecError(f"unknown observer T{observer} in spec")
        if tx == observer:
            raise InvalidSpecError(
                f"Atomicity(T{tx}, T{observer}) relative to itself is invalid"
            )
        transaction = self._transactions[tx]
        if isinstance(value, Atomicity):
            view = value
            if (
                view.tx != tx
                or view.observer != observer
                or view.length != len(transaction)
            ):
                raise InvalidSpecError(
                    f"Atomicity object does not match pair (T{tx}, T{observer})"
                )
        elif isinstance(value, str):
            view = _parse_view(transaction, observer, value)
        else:
            view = Atomicity(tx, observer, len(transaction), value)
        self._views[(tx, observer)] = view

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

    def atomicity(self, tx: int, observer: int) -> Atomicity:
        """``Atomicity(T{tx}, T{observer})``.

        An explicit view when one was given; otherwise ``T{tx}``'s
        declared cuts (absolute when it declared none), derived in O(1)
        from the transaction's template and not stored per pair.
        """
        view = self._views.get((tx, observer))
        if view is not None:
            return view
        if tx == observer:
            raise InvalidSpecError(
                f"Atomicity(T{tx}, T{observer}) relative to itself is invalid"
            )
        if tx not in self._transactions:
            raise MissingSpecError(f"unknown transaction T{tx}")
        if observer not in self._transactions:
            raise MissingSpecError(f"unknown observer T{observer}")
        template = self._templates.get(tx)
        if template is None:
            template = self._templates[tx] = Atomicity(
                tx,
                observer,
                len(self._transactions[tx]),
                self._declared_cuts.get(tx, ()),
            )
            return template
        return template.relative_to(observer)

    def units(self, tx: int, observer: int) -> tuple[AtomicUnit, ...]:
        """The atomic units of ``T{tx}`` relative to ``T{observer}``."""
        return self.atomicity(tx, observer).units

    def unit_of(self, op: Operation, observer: int) -> AtomicUnit:
        """The unit of ``op``'s transaction (relative to ``observer``)
        containing ``op``."""
        if op.tx is None or op.index is None:
            raise InvalidSpecError(f"operation {op!r} is not bound")
        return self.atomicity(op.tx, observer).unit_of(op.index)

    def push_forward(self, op: Operation, observer: int) -> Operation:
        """``PushForward(op, T{observer})``: last operation of ``op``'s
        atomic unit relative to the observer (Section 3)."""
        unit = self.unit_of(op, observer)
        return self._transactions[op.tx][unit.end]

    def pull_backward(self, op: Operation, observer: int) -> Operation:
        """``PullBackward(op, T{observer})``: first operation of ``op``'s
        atomic unit relative to the observer (Section 3)."""
        unit = self.unit_of(op, observer)
        return self._transactions[op.tx][unit.start]

    def pairs(self) -> list[tuple[int, int]]:
        """Every ordered pair ``(tx, observer)`` with ``tx != observer``."""
        ids = sorted(self._transactions)
        return [(i, j) for i in ids for j in ids if i != j]

    def restricted_to(self, tx_ids: Iterable[int]) -> "RelativeAtomicitySpec":
        """The spec induced on a subset of the transactions.

        Views between surviving pairs are kept verbatim (explicit views
        are copied, declared cuts carried over), so every surviving
        pair's view is the same as in this spec; views involving a
        dropped transaction disappear with it.  This is how the fault
        campaigns certify a *committed projection*: the survivors'
        mutual atomicity requirements are unchanged by other
        transactions' aborts.
        """
        keep = set(tx_ids)
        unknown = keep.difference(self._transactions)
        if unknown:
            raise InvalidSpecError(
                f"cannot restrict to unknown transactions "
                f"{sorted(unknown)}"
            )
        transactions = [self._transactions[tx_id] for tx_id in sorted(keep)]
        views = {
            (tx, observer): view
            for (tx, observer), view in self._views.items()
            if tx in keep and observer in keep
        }
        restricted = RelativeAtomicitySpec(transactions, views)
        restricted._declared_cuts = {
            tx_id: cuts
            for tx_id, cuts in self._declared_cuts.items()
            if tx_id in keep
        }
        return restricted

    @property
    def is_absolute(self) -> bool:
        """Whether every view is absolute (the traditional model)."""
        return all(
            self.atomicity(tx, observer).is_absolute
            for tx, observer in self.pairs()
        )

    def render(self) -> str:
        """All views in the paper's notation, one per line."""
        lines = []
        for tx, observer in self.pairs():
            view = self.atomicity(tx, observer)
            rendered = view.render(self._transactions[tx])
            lines.append(f"Atomicity(T{tx}, T{observer}): {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RelativeAtomicitySpec({len(self._transactions)} transactions, "
            f"{len(self._views)} explicit views)"
        )


def _parse_view(transaction: Transaction, observer: int, text: str) -> Atomicity:
    """Parse ``"r[x] w[x] | w[z] r[y]"`` into an :class:`Atomicity`.

    The operations listed must match the transaction's program, in order;
    ``|`` marks unit boundaries.  Raises
    :class:`~repro.errors.InvalidSpecError` on any mismatch.
    """
    breakpoints: list[int] = []
    cursor = 0
    for token in text.split():
        if token == "|":
            if cursor == 0 or cursor >= len(transaction):
                raise InvalidSpecError(
                    f"misplaced unit separator in view of T{transaction.tx_id}: "
                    f"{text!r}"
                )
            breakpoints.append(cursor)
            continue
        parsed = parse_operation(token)
        if parsed.tx is not None and parsed.tx != transaction.tx_id:
            raise InvalidSpecError(
                f"view of T{transaction.tx_id} mentions T{parsed.tx}: {token!r}"
            )
        if cursor >= len(transaction):
            raise InvalidSpecError(
                f"view lists too many operations for T{transaction.tx_id}: "
                f"{text!r}"
            )
        expected = transaction[cursor]
        if expected.op_type != parsed.op_type or expected.obj != parsed.obj:
            raise InvalidSpecError(
                f"view token {token!r} does not match operation "
                f"{expected.label} of T{transaction.tx_id}"
            )
        cursor += 1
    if cursor != len(transaction):
        raise InvalidSpecError(
            f"view lists only {cursor} of {len(transaction)} operations of "
            f"T{transaction.tx_id}: {text!r}"
        )
    return Atomicity(transaction.tx_id, observer, len(transaction), breakpoints)
