"""Unit tests for the relative serialization graph (Definition 3)."""

import random

import pytest

from repro.core.checkers import is_relatively_serial
from repro.core.rsg import (
    ArcKind,
    RelativeSerializationGraph,
    is_relatively_serializable,
)
from repro.core.schedules import Schedule, conflict_equivalent
from repro.core.transactions import Transaction
from repro.errors import CycleError, InvalidSpecError
from repro.paper.figures import FIGURE3_EXPECTED_ARCS
from repro.specs.builders import absolute_spec, random_spec
from repro.workloads.random_schedules import (
    random_interleaving,
    random_transactions,
)


class TestConstruction:
    def test_vertices_are_all_operations(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        assert rsg.graph.node_count == 6
        assert set(rsg.graph.nodes()) == set(fig3.schedule("S2").operations)

    def test_internal_arcs_follow_program_order(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        internal = {
            (a.label, b.label) for a, b in rsg.arcs(ArcKind.INTERNAL)
        }
        assert internal == {
            ("w1[x]", "r1[z]"),
            ("r2[x]", "w2[y]"),
            ("r3[z]", "r3[y]"),
        }

    def test_figure3_arc_set_is_reproduced_exactly(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        got = {
            (a.label, b.label): frozenset(kind.value for kind in labels)
            for a, b, labels in rsg.graph.labelled_edges()
        }
        assert got == FIGURE3_EXPECTED_ARCS

    def test_paper_quoted_f_arc(self, fig3):
        # "RSG(S2) contains the F-arc from r1[z] to r2[x]".
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        t1 = fig3.spec.transactions[1]
        t2 = fig3.spec.transactions[2]
        assert ArcKind.PUSH_FORWARD in rsg.arc_kinds(t1[1], t2[0])

    def test_paper_quoted_b_arc(self, fig3):
        # "RSG(S2) contains the B-arc from w2[y] to r3[z]".
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        t2 = fig3.spec.transactions[2]
        t3 = fig3.spec.transactions[3]
        assert ArcKind.PULL_BACKWARD in rsg.arc_kinds(t2[1], t3[0])

    def test_spec_mismatch_rejected(self, fig3, fig1):
        with pytest.raises(InvalidSpecError):
            RelativeSerializationGraph(fig3.schedule("S2"), fig1.spec)

    def test_arcs_unfiltered_returns_every_edge(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        assert len(rsg.arcs()) == rsg.graph.edge_count


class TestAcyclicity:
    def test_figure3_rsg_is_acyclic(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        assert rsg.is_acyclic
        assert rsg.cycle is None

    def test_relatively_serializable_schedule_accepted(self, fig1):
        assert is_relatively_serializable(fig1.schedule("S2"), fig1.spec)

    def test_non_serializable_schedule_rejected(self):
        # Classic lost-update interleaving under absolute atomicity.
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x]"),
        ]
        s = Schedule.from_notation(txs, "r1[x] r2[x] w1[x] w2[x]")
        spec = absolute_spec(txs)
        rsg = RelativeSerializationGraph(s, spec)
        assert not rsg.is_acyclic
        assert rsg.cycle is not None
        # The witness is a real cycle in the graph.
        cycle = rsg.cycle
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert rsg.graph.has_edge(a, b)

    def test_cycle_is_cached(self, fig3):
        rsg = RelativeSerializationGraph(fig3.schedule("S2"), fig3.spec)
        assert rsg.cycle is rsg.cycle  # same object, computed once


def _seeded_corpus(seed, size):
    """``size`` random schedules over 3-4 transactions of 2-4
    operations, each under a random spec keeping half the cuts."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        transactions = random_transactions(
            rng.randint(3, 4), (2, 4), rng.randint(3, 5), seed=rng
        )
        spec = random_spec(transactions, 0.5, seed=rng)
        corpus.append((random_interleaving(transactions, rng), spec))
    return corpus


class TestWitnessIsAccessOrderFree:
    """The witness cycle must not depend on whether ``.graph`` was
    materialized before ``.cycle`` was read: ``repro rsg`` (which
    prints arc counts first) and ``repro witness``/``explain`` must
    report the same cycle."""

    def test_seeded_corpus(self):
        cyclic = 0
        for schedule, spec in _seeded_corpus(3, 400):
            graph_first = RelativeSerializationGraph(schedule, spec)
            graph_first.graph
            cycle_first = RelativeSerializationGraph(schedule, spec)
            witness = cycle_first.cycle
            assert graph_first.cycle == witness
            if witness is not None:
                cyclic += 1
                assert witness[0] == witness[-1]
                for a, b in zip(witness, witness[1:]):
                    assert graph_first.graph.has_edge(a, b)
        assert cyclic > 100  # the corpus exercises the cyclic branch


class TestTheoremOneConstructive:
    def test_extracted_schedule_is_relatively_serial(self, fig1):
        rsg = RelativeSerializationGraph(fig1.schedule("S2"), fig1.spec)
        witness = rsg.equivalent_relatively_serial_schedule()
        assert is_relatively_serial(witness, fig1.spec)

    def test_extracted_schedule_is_conflict_equivalent(self, fig1):
        rsg = RelativeSerializationGraph(fig1.schedule("S2"), fig1.spec)
        witness = rsg.equivalent_relatively_serial_schedule()
        assert conflict_equivalent(witness, fig1.schedule("S2"))

    def test_extracted_schedule_matches_paper_srs(self, fig1):
        # The tie-break by original position recovers the paper's own
        # witness Srs for its example S2.
        rsg = RelativeSerializationGraph(fig1.schedule("S2"), fig1.spec)
        assert (
            rsg.equivalent_relatively_serial_schedule()
            == fig1.schedule("Srs")
        )

    def test_extraction_raises_with_cycle_witness(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x]"),
        ]
        s = Schedule.from_notation(txs, "r1[x] r2[x] w1[x] w2[x]")
        rsg = RelativeSerializationGraph(s, absolute_spec(txs))
        with pytest.raises(CycleError) as excinfo:
            rsg.equivalent_relatively_serial_schedule()
        assert excinfo.value.cycle

    def test_extraction_of_relatively_serial_input_is_stable(self, fig1):
        # A schedule that is already relatively serial sorts to itself
        # when ties break by original position.
        rsg = RelativeSerializationGraph(fig1.schedule("Srs"), fig1.spec)
        assert rsg.equivalent_relatively_serial_schedule() == fig1.schedule(
            "Srs"
        )


class TestAblationSwitches:
    def test_without_b_arcs_no_pull_backward(self, fig3):
        rsg = RelativeSerializationGraph(
            fig3.schedule("S2"), fig3.spec, include_b_arcs=False
        )
        assert rsg.arcs(ArcKind.PULL_BACKWARD) == []
        assert rsg.arcs(ArcKind.PUSH_FORWARD) != []

    def test_without_f_arcs_no_push_forward(self, fig3):
        rsg = RelativeSerializationGraph(
            fig3.schedule("S2"), fig3.spec, include_f_arcs=False
        )
        assert rsg.arcs(ArcKind.PUSH_FORWARD) == []

    def test_direct_dependencies_accept_figure2_schedule(self, fig2):
        # With direct-only dependencies Figure 2's S1 looks fine; the
        # transitive closure is what rejects it (module docstring of
        # repro.core.dependency).
        full = RelativeSerializationGraph(fig2.schedule("S1"), fig2.spec)
        direct = RelativeSerializationGraph(
            fig2.schedule("S1"),
            fig2.spec,
            transitive_dependencies=False,
        )
        assert len(full.arcs(ArcKind.DEPENDENCY)) > len(
            direct.arcs(ArcKind.DEPENDENCY)
        )
