"""Exhaustive enumeration of schedules over a transaction set.

The number of schedules over transactions of lengths ``n1 .. nk`` is the
multinomial coefficient ``(n1 + ... + nk)! / (n1! ... nk!)``; these
functions enumerate all of them (program order is forced, so choosing a
schedule is choosing which transaction emits next).  Only sensible at
small sizes — which is exactly what the Figure 5 class-census experiment
and the exhaustive Lemma 1 / Theorem 1 agreement tests need.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from repro.core.operations import Operation
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.errors import InvalidTransactionError

__all__ = [
    "all_interleavings",
    "count_interleavings",
    "interleaving_blocks",
    "interleavings_block",
    "rank_interleaving",
    "unrank_interleaving",
]


def _checked_programs(
    transactions: Sequence[Transaction],
) -> dict[int, tuple[Operation, ...]]:
    """Programs by id, rejecting duplicate ids and skipping empty ones."""
    programs: dict[int, tuple[Operation, ...]] = {}
    for tx in transactions:
        if tx.tx_id in programs:
            raise InvalidTransactionError(
                f"duplicate transaction id T{tx.tx_id}: interleavings are "
                "only defined over a set of distinct transactions"
            )
        programs[tx.tx_id] = tuple(tx.operations)
    return {tx_id: ops for tx_id, ops in programs.items() if ops}


def _multinomial(remaining: Sequence[int]) -> int:
    """Schedules over transactions with ``remaining[i]`` ops left each."""
    count = math.factorial(sum(remaining))
    for length in remaining:
        count //= math.factorial(length)
    return count


def count_interleavings(transactions: Sequence[Transaction]) -> int:
    """The exact number of schedules over ``transactions``.

    An empty transaction sequence has exactly one (empty) schedule;
    transactions with no operations contribute a factor of one.
    Duplicate transaction ids are rejected.
    """
    programs = _checked_programs(transactions)
    return _multinomial([len(ops) for ops in programs.values()])


def all_interleavings(
    transactions: Sequence[Transaction],
) -> Iterator[Schedule]:
    """Yield every schedule over ``transactions``, in a deterministic
    (lexicographic-by-transaction-id) order.

    The generator is lazy; combine with ``itertools.islice`` for sampling
    a prefix, or iterate fully for a census.  See
    :func:`count_interleavings` before iterating fully.
    """
    return interleavings_block(transactions, 0, None)


def rank_interleaving(schedule: Schedule) -> int:
    """The lexicographic index of ``schedule`` among all interleavings.

    The inverse of :func:`unrank_interleaving`: at each position, count
    the subtrees of smaller-id choices (each a multinomial over the
    remaining operation counts) that the enumeration would have visited
    first.
    """
    programs = _checked_programs(schedule.transaction_list)
    tx_ids = sorted(programs)
    remaining = {tx_id: len(programs[tx_id]) for tx_id in tx_ids}
    rank = 0
    for op in schedule.operations:
        for tx_id in tx_ids:
            if tx_id == op.tx:
                break
            if remaining[tx_id] == 0:
                continue
            remaining[tx_id] -= 1
            rank += _multinomial(list(remaining.values()))
            remaining[tx_id] += 1
        remaining[op.tx] -= 1
    return rank


def unrank_interleaving(
    transactions: Sequence[Transaction], index: int
) -> Schedule:
    """The schedule at lexicographic ``index`` (0-based), directly.

    Cost is O(total ops x transactions) multinomial evaluations — no
    enumeration of the preceding schedules.  ``unrank(rank(s)) == s``
    for every schedule ``s``, and ``unrank(i)`` is the ``i``-th element
    of :func:`all_interleavings`.
    """
    programs = _checked_programs(transactions)
    total = count_interleavings(transactions)
    if not 0 <= index < total:
        raise IndexError(
            f"interleaving index {index} out of range [0, {total})"
        )
    tx_ids = sorted(programs)
    remaining = {tx_id: len(programs[tx_id]) for tx_id in tx_ids}
    cursor = {tx_id: 0 for tx_id in tx_ids}
    order: list[Operation] = []
    for _ in range(sum(remaining.values())):
        for tx_id in tx_ids:
            if remaining[tx_id] == 0:
                continue
            remaining[tx_id] -= 1
            subtree = _multinomial(list(remaining.values()))
            if index < subtree:
                order.append(programs[tx_id][cursor[tx_id]])
                cursor[tx_id] += 1
                break
            index -= subtree
            remaining[tx_id] += 1
    return Schedule(list(transactions), order)


def interleavings_block(
    transactions: Sequence[Transaction],
    start: int = 0,
    stop: int | None = None,
) -> Iterator[Schedule]:
    """Yield the schedules with lexicographic ranks in ``[start, stop)``.

    Equivalent to islicing :func:`all_interleavings` but *skips* the
    preceding schedules outright: the choice tree is walked with the
    subtree sizes (multinomials over remaining operation counts), and
    subtrees entirely outside the window are pruned without being
    entered.  Concatenating the blocks of a partition of ``[0, total)``
    reproduces the full enumeration exactly — the property the parallel
    sweep engine is built on.
    """
    programs = _checked_programs(transactions)
    tx_ids = sorted(programs)
    total = sum(len(ops) for ops in programs.values())
    count = _multinomial([len(programs[tx_id]) for tx_id in tx_ids])
    if stop is None or stop > count:
        stop = count
    if start < 0:
        raise IndexError(f"block start {start} must be non-negative")
    transactions = list(transactions)
    if start >= stop:
        return
    if total == 0:
        yield Schedule(transactions, [])
        return
    cursor = {tx_id: 0 for tx_id in tx_ids}
    remaining = {tx_id: len(programs[tx_id]) for tx_id in tx_ids}
    prefix: list[Operation] = []

    def descend_all() -> Iterator[list[Operation]]:
        # Fast path for subtrees entirely inside the window: plain
        # lexicographic enumeration, no subtree-size arithmetic.
        if len(prefix) == total:
            yield list(prefix)
            return
        for tx_id in tx_ids:
            if remaining[tx_id] == 0:
                continue
            prefix.append(programs[tx_id][cursor[tx_id]])
            cursor[tx_id] += 1
            remaining[tx_id] -= 1
            yield from descend_all()
            remaining[tx_id] += 1
            cursor[tx_id] -= 1
            prefix.pop()

    def extend(offset: int) -> Iterator[list[Operation]]:
        # ``offset`` is the rank of the first leaf under this node; only
        # nodes straddling a window boundary pay for subtree counting.
        if len(prefix) == total:
            yield list(prefix)
            return
        for tx_id in tx_ids:
            if remaining[tx_id] == 0:
                continue
            remaining[tx_id] -= 1
            subtree = _multinomial(list(remaining.values()))
            if offset + subtree <= start or offset >= stop:
                remaining[tx_id] += 1
                offset += subtree
                continue
            prefix.append(programs[tx_id][cursor[tx_id]])
            cursor[tx_id] += 1
            if start <= offset and offset + subtree <= stop:
                yield from descend_all()
            else:
                yield from extend(offset)
            cursor[tx_id] -= 1
            remaining[tx_id] += 1
            prefix.pop()
            offset += subtree

    for order in extend(0):
        yield Schedule(transactions, order)


def interleaving_blocks(
    transactions: Sequence[Transaction], blocks: int
) -> list[tuple[int, int]]:
    """Split ``[0, count_interleavings())`` into ``blocks`` contiguous
    near-equal ``(start, stop)`` windows (empty windows omitted).
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    total = count_interleavings(transactions)
    base, extra = divmod(total, blocks)
    bounds = []
    start = 0
    for i in range(blocks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        bounds.append((start, start + size))
        start += size
    return bounds

