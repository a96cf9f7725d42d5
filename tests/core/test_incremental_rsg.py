"""Tests for the prefix-extension APIs: ``Schedule.prefix`` and
``IncrementalRsg``."""

import pytest

from repro.core.dependency import DependencyRelation
from repro.core.rsg import IncrementalRsg, RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.errors import InvalidScheduleError
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
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
        assert not engine.try_push(txs[1][1])
        engine.push_uncertified(txs[1][1])
        assert not engine.acyclic
        assert engine.witness is not None
        engine.push_uncertified(txs[1][2])
        assert not engine.acyclic  # extensions of a cyclic prefix stay cyclic
        schedule = Schedule(txs, engine.history)
        view = engine.materialize(schedule)
        assert not view.is_acyclic
        # Popping back above the first uncertified op clears the state.
        engine.pop()
        engine.pop()
        assert engine.acyclic

    def test_materialized_dependency_matches_scratch(self):
        txs, spec = _figure2_like()
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        order = [txs[0][0], txs[2][0], txs[1][0], txs[2][1]]
        for op in order:
            assert engine.try_push(op)
        schedule = Schedule.prefix(txs, order)
        dependency = engine.dependency_for(schedule)
        scratch = DependencyRelation(schedule)
        assert list(dependency.pairs()) == list(scratch.pairs())


class TestPrefixByPrefix:
    """``IncrementalRsg(maintain_reach=True)`` against from-scratch
    construction at every prefix of a seeded corpus, cyclic prefixes
    (after ``push_uncertified``) included."""

    def test_every_prefix_matches_scratch(self):
        cyclic_prefixes = 0
        for schedule, spec in _seeded_corpus(11, 150):
            txs = schedule.transaction_list
            engine = IncrementalRsg(spec, maintain_reach=True)
            for tx in txs:
                engine.add_transaction(tx)
            ops = schedule.operations
            for n, op in enumerate(ops, start=1):
                if not (engine.acyclic and engine.try_push(op)):
                    engine.push_uncertified(op)
                prefix = Schedule.prefix(txs, ops[:n])
                view = engine.materialize(prefix)
                scratch = RelativeSerializationGraph(prefix, spec)
                assert _edge_set(view.graph) == _edge_set(scratch.graph)
                assert view.is_acyclic == scratch.is_acyclic
                if not view.is_acyclic:
                    cyclic_prefixes += 1
                    witness = view.cycle
                    assert witness[0] == witness[-1]
                    for a, b in zip(witness, witness[1:]):
                        assert scratch.graph.has_edge(a, b)
                assert list(engine.dependency_for(prefix).pairs()) == list(
                    DependencyRelation(prefix).pairs()
                )
        assert cyclic_prefixes > 50  # the cyclic branch is exercised
