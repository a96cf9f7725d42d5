"""Retirement is exact: a retiring certifier decides like one that never
retires.

A certifier told about commits (:meth:`RsgCertifier.commit`) drops
committed transactions from its live window; one never told keeps the
whole certified history and serves as the reference.  Seeded scripts of
declare / certify / commit / forget / undeclare / compact run against
both, and every verdict must agree.  Independently of both certifiers,
the committed projection must be relatively serializable by the
brute-force definition (``core.brute``) whenever it is small enough to
enumerate.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.brute import brute_force_relatively_serializable
from repro.core.operations import read, write
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.protocols.certifier import RsgCertifier

OBJECTS = ("x", "y", "z")

#: Largest committed projection (in operations) checked by brute force.
BRUTE_MAX_OPS = 8

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scripts(draw):
    """Transactions with declared cuts, a compaction floor, and actions."""
    n = draw(st.integers(2, 6))
    transactions = []
    cuts = {}
    for tx_id in range(1, n + 1):
        length = draw(st.integers(1, 3))
        ops = []
        for _ in range(length):
            obj = draw(st.sampled_from(OBJECTS))
            ops.append(write(obj) if draw(st.booleans()) else read(obj))
        transactions.append(Transaction(tx_id, ops))
        cuts[tx_id] = [
            position for position in range(1, length) if draw(st.booleans())
        ]
    floor = draw(st.sampled_from((0, 1, 2, 4)))
    actions = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, n - 1)),
            min_size=5,
            max_size=60,
        )
    )
    return transactions, cuts, floor, actions


def _edges(graph):
    return {
        (source, target, labels)
        for source, target, labels in graph.labelled_edges()
    }


def _live(certifier):
    return {op.tx for op in certifier.graph.nodes()}


def _assert_window_is_exact(retiring, reference):
    """The retirement invariant, read off the reference graph: every
    arc into a retired transaction leaves a retired one.  The retiring
    graph is the reference graph restricted to the live window's
    vertices, and its history the reference history minus the retired
    transactions' operations (order kept)."""
    live = _live(retiring)
    retired = _live(reference) - live
    edges = _edges(reference.graph)
    for source, target, _labels in edges:
        if target.tx in retired:
            assert source.tx in retired, (source, target)
    restricted = {
        (source, target, labels)
        for source, target, labels in edges
        if source.tx in live and target.tx in live
    }
    assert _edges(retiring.graph) == restricted
    assert retiring.history == tuple(
        op for op in reference.history if op.tx in live
    )


def _pair(spec, floor):
    retiring = RsgCertifier(spec)
    retiring._compact_floor = floor
    retiring._compact_at = floor
    return retiring, RsgCertifier(spec)


@given(scripts())
@_SETTINGS
def test_retiring_certifier_decides_like_the_reference(script):
    transactions, cuts, floor, actions = script
    spec = RelativeAtomicitySpec([])
    retiring, reference = _pair(spec, floor)
    by_id = {tx.tx_id: tx for tx in transactions}
    pending = sorted(by_id)  # not declared yet
    cursor: dict[int, int] = {}
    committed: set[int] = set()

    def declare(tx_id):
        spec.declare_transaction(by_id[tx_id], cuts[tx_id])
        retiring.declare(by_id[tx_id])
        reference.declare(by_id[tx_id])
        cursor[tx_id] = 0

    def restart(tx_id):
        retiring.forget(tx_id)
        reference.forget(tx_id)
        cursor[tx_id] = 0

    declare(pending.pop(0))
    for kind, pick in actions:
        open_ids = sorted(set(cursor) - committed)
        if kind == 0 and pending:
            declare(pending.pop(0))
        elif kind == 1 and open_ids:
            victim = open_ids[pick % len(open_ids)]
            restart(victim)
        elif kind == 2 and open_ids:
            # Permanent abort: forget, then undeclare for good.
            victim = open_ids[pick % len(open_ids)]
            restart(victim)
            retiring.undeclare(victim)
            reference.undeclare(victim)
            del cursor[victim]
        elif kind == 3:
            retiring._compact()
        elif open_ids:
            tx_id = open_ids[pick % len(open_ids)]
            program = by_id[tx_id].operations
            if cursor[tx_id] == len(program):
                committed.add(tx_id)
                retiring.commit(tx_id)
            else:
                op = program[cursor[tx_id]]
                verdict = reference.try_certify(op)
                assert retiring.try_certify(op) == verdict
                if verdict:
                    cursor[tx_id] += 1
                else:
                    restart(tx_id)
        _assert_window_is_exact(retiring, reference)

    assert retiring.stats.fallback_rebuilds == 0
    assert reference.stats.fallback_rebuilds == 0
    assert reference.stats.retired == 0
    assert retiring.stats.certified == reference.stats.certified
    assert retiring.stats.rejected == reference.stats.rejected

    # The committed projection, checked independently of both engines.
    survivors = sorted(committed)
    if not survivors:
        return
    projection = Schedule(
        [by_id[tx_id] for tx_id in survivors],
        [op for op in reference.history if op.tx in committed],
    )
    restricted = spec.restricted_to(survivors)
    assert RelativeSerializationGraph(projection, restricted).is_acyclic
    if len(projection) <= BRUTE_MAX_OPS:
        assert brute_force_relatively_serializable(projection, restricted)


class TestRetirementEdgeCases:
    """Pinned scenarios around an open reader and a committed writer."""

    @staticmethod
    def _setup(reader_program, writer_program):
        reader = Transaction.from_notation(1, reader_program)
        writer = Transaction.from_notation(2, writer_program)
        spec = RelativeAtomicitySpec([])
        spec.declare_transaction(reader)  # absolute to everyone
        spec.declare_transaction(writer)
        retiring, reference = _pair(spec, 0)
        for certifier in (retiring, reference):
            certifier.declare(reader)
            certifier.declare(writer)
        return reader, writer, retiring, reference

    @staticmethod
    def _certify_both(retiring, reference, op):
        verdict = reference.try_certify(op)
        assert retiring.try_certify(op) == verdict
        return verdict

    def test_writer_after_an_open_read_is_not_retired(self):
        # T1 reads x, then T2 overwrites x and y and commits: T2's write
        # depends on T1's open read, so T1 (uncommitted) reaches T2 and
        # T2 must stay.  Retiring it would lose the B-arc cycle T1's
        # later r[y] closes (T1 is absolute relative to T2).
        reader, writer, retiring, reference = self._setup(
            "r[x] r[y]", "w[x] w[y]"
        )
        for op in (reader[0], writer[0], writer[1]):
            assert self._certify_both(retiring, reference, op)
        retiring.commit(2)
        retiring._compact()
        assert retiring.stats.retired == 0
        assert _live(retiring) == {1, 2}
        assert not self._certify_both(retiring, reference, reader[1])
        _assert_window_is_exact(retiring, reference)

        # Once the reader is forgotten nothing reaches the writer: it
        # retires, and the restarted reader is judged the same by both.
        retiring.forget(1)
        reference.forget(1)
        retiring._compact()
        assert retiring.stats.retired == 1
        assert _live(retiring) == {1}
        for op in reader:
            assert self._certify_both(retiring, reference, op)
        assert retiring.stats.fallback_rebuilds == 0

    def test_writer_read_by_an_open_reader_retires_exactly(self):
        # T2 writes x and commits; T1 then reads it.  Every arc between
        # them leaves T2, and no arc can ever enter a committed
        # transaction, so T2 cannot lie on a future cycle and retires
        # even though the open T1 depends on it.
        reader, writer, retiring, reference = self._setup(
            "r[x] w[y]", "w[x] r[y]"
        )
        for op in (writer[0], writer[1], reader[0]):
            assert self._certify_both(retiring, reference, op)
        retiring.commit(2)
        retiring._compact()
        assert retiring.stats.retired == 1
        assert _live(retiring) == {1}
        assert self._certify_both(retiring, reference, reader[1])
        retiring.forget(1)
        reference.forget(1)
        for op in reader:
            assert self._certify_both(retiring, reference, op)
        _assert_window_is_exact(retiring, reference)
        assert retiring.stats.fallback_rebuilds == 0

    def test_compaction_waits_for_the_window_to_double(self):
        spec = RelativeAtomicitySpec([])
        certifier = RsgCertifier(spec)
        floor = certifier._compact_floor
        for tx_id in range(1, floor + 1):
            transaction = Transaction.from_notation(tx_id, "r[x] w[x]")
            spec.declare_transaction(transaction)
            certifier.declare(transaction)
            for op in transaction:
                assert certifier.try_certify(op)
            certifier.commit(tx_id)
            history = 2 * tx_id
            if history < floor:
                assert certifier.stats.compactions == 0
                assert len(certifier.history) == history
        # Serial and committed: everything retired at the floor.
        assert certifier.stats.compactions >= 1
        assert len(certifier.history) < floor
        assert certifier.stats.retired + len(
            {op.tx for op in certifier.history}
        ) == floor
