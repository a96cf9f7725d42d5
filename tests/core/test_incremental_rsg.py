"""Tests for the prefix-extension APIs: ``Schedule.prefix`` and
``IncrementalRsg``."""

import pytest

from repro.core.rsg import IncrementalRsg, RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.errors import GraphError, InvalidScheduleError
from repro.specs.builders import absolute_spec, finest_spec
from tests.core.test_rsg import _seeded_corpus


def _figure2_like():
    txs = [
        Transaction.from_notation(1, "r[x] w[x]"),
        Transaction.from_notation(2, "r[x] w[x]"),
        Transaction.from_notation(3, "r[x] w[y]"),
    ]
    return txs, finest_spec(txs)


def _edge_set(graph):
    return {(a, b, labels) for a, b, labels in graph.labelled_edges()}


class TestSchedulePrefix:
    def test_prefix_relaxes_completeness_only(self):
        txs, _spec = _figure2_like()
        prefix = Schedule.prefix(txs, [txs[0][0], txs[1][0]])
        assert not prefix.is_complete
        assert len(prefix) == 2
        with pytest.raises(InvalidScheduleError):
            # Program order still enforced.
            Schedule.prefix(txs, [txs[0][1]])


class TestIncrementalRsg:
    def test_push_pop_roundtrip_restores_graph(self):
        txs, spec = _figure2_like()
        engine = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
        baseline = _edge_set(engine.graph)
        assert engine.try_push(txs[0][0])
        assert engine.try_push(txs[1][0])
        assert engine.try_push(txs[0][1])
        assert len(engine) == 3
        for _ in range(3):
            engine.pop()
        assert _edge_set(engine.graph) == baseline

    def test_rejection_is_exact_against_oracle(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x]"),
        ]
        spec = absolute_spec(txs)
        engine = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
        assert not engine.try_push(txs[1][1])
        witness = engine.last_rejected_cycle
        assert witness is not None and witness[0] == witness[-1]
        # Refusal left nothing behind: the op can be re-tried and the
        # answer is stable (monotonicity).
        assert not engine.try_push(txs[1][1])
        assert len(engine) == 3

    def test_push_uncertified_tracks_cyclic_extensions(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x] r[y]"),
        ]
        spec = absolute_spec(txs)
        engine = IncrementalRsg(spec)
        reference = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
            reference.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
            assert reference.try_push(op)
        baseline = _edge_set(engine.graph)
        assert not engine.try_push(txs[1][1])
        engine.push_uncertified(txs[1][1])
        assert not engine.acyclic
        engine.push_uncertified(txs[1][2])
        assert not engine.acyclic  # extensions of a cyclic prefix stay cyclic
        assert engine.history == [txs[0][0], txs[1][0], txs[0][1],
                                  txs[1][1], txs[1][2]]
        # Uncertified operations add no arcs.
        assert _edge_set(engine.graph) == baseline
        with pytest.raises(GraphError):
            engine.try_push(txs[1][2])
        # Popping back above the first uncertified op restores exactly
        # the state of an engine that never saw the cyclic suffix.
        assert engine.pop() == txs[1][2]
        assert not engine.acyclic
        assert engine.pop() == txs[1][1]
        assert engine.acyclic
        assert engine.history == reference.history
        assert _edge_set(engine.graph) == _edge_set(reference.graph)
        for tracker in ("_closed", "_hist_ids", "_last_write", "_last_of_tx"):
            assert getattr(engine, tracker) == getattr(reference, tracker)
        # An empty reads-since-write list reads the same as no entry
        # (a popped read leaves one behind, a write stores one).
        def reads(rsg):
            return {k: v for k, v in rsg._reads_since_write.items() if v}

        assert reads(engine) == reads(reference)
        assert not engine.try_push(txs[1][1])  # the refusal is stable


class TestPrefixByPrefix:
    """``IncrementalRsg`` against from-scratch construction at every
    prefix of a seeded corpus: equal arcs while the prefix is acyclic,
    and a refused push exactly where the from-scratch prefix turns
    cyclic."""

    def test_every_prefix_matches_scratch(self):
        refused = 0
        for schedule, spec in _seeded_corpus(11, 150):
            txs = schedule.transaction_list
            engine = IncrementalRsg(spec)
            for tx in txs:
                engine.add_transaction(tx)
            ops = schedule.operations
            for n, op in enumerate(ops, start=1):
                scratch = RelativeSerializationGraph(
                    Schedule.prefix(txs, ops[:n]), spec
                )
                if not engine.try_push(op):
                    assert not scratch.is_acyclic
                    witness = engine.last_rejected_cycle
                    assert witness[0] == witness[-1]
                    for a, b in zip(witness, witness[1:]):
                        assert scratch.graph.has_edge(a, b)
                    refused += 1
                    break
                assert scratch.is_acyclic
                assert _edge_set(engine.graph) == _edge_set(scratch.graph)
            else:
                assert RelativeSerializationGraph(schedule, spec).is_acyclic
        assert refused > 50  # the refusal branch is exercised
