"""Unit tests for the class census."""

import json
from pathlib import Path

from repro.analysis.classes import census, census_exhaustive
from repro.io.notation import parse_problem
from repro.core.transactions import Transaction
from repro.specs.builders import absolute_spec, uniform_spec
from repro.workloads.enumerate import all_interleavings, count_interleavings


def _small_txs():
    return [
        Transaction.from_notation(1, "r[x] w[x]"),
        Transaction.from_notation(2, "w[x] r[y]"),
    ]


class TestCensus:
    def test_total_matches_population(self):
        txs = _small_txs()
        result = census_exhaustive(txs, absolute_spec(txs))
        assert result.total == count_interleavings(txs)

    def test_absolute_spec_ra_equals_serial(self):
        txs = _small_txs()
        result = census_exhaustive(txs, absolute_spec(txs))
        assert result.relatively_atomic == result.serial == 2

    def test_absolute_spec_rsr_equals_csr(self):
        txs = _small_txs()
        result = census_exhaustive(txs, absolute_spec(txs))
        assert result.relatively_serializable == result.conflict_serializable

    def test_relaxed_spec_strictly_larger(self):
        txs = _small_txs()
        strict = census_exhaustive(txs, absolute_spec(txs))
        relaxed = census_exhaustive(txs, uniform_spec(txs, 1))
        assert (
            relaxed.relatively_serializable
            > strict.relatively_serializable
        )

    def test_containments_in_counts(self):
        txs = _small_txs()
        result = census_exhaustive(txs, uniform_spec(txs, 2))
        assert result.serial <= result.relatively_atomic
        assert result.relatively_atomic <= result.relatively_serial
        assert result.relatively_serial <= result.relatively_serializable
        assert result.relatively_atomic <= result.relatively_consistent
        assert (
            result.relatively_consistent <= result.relatively_serializable
        )

    def test_rate(self):
        txs = _small_txs()
        result = census_exhaustive(txs, absolute_spec(txs))
        assert result.rate(result.total) == 1.0
        assert result.rate(0) == 0.0

    def test_as_rows_covers_all_classes(self):
        txs = _small_txs()
        rows = census_exhaustive(txs, absolute_spec(txs)).as_rows()
        names = [name for name, _count, _rate in rows]
        assert names == [
            "serial",
            "relatively atomic",
            "relatively consistent",
            "relatively serial",
            "conflict serializable",
            "relatively serializable",
        ]

    def test_budget_exhaustion_counted_not_crashed(self, fig1):
        import itertools

        population = itertools.islice(
            all_interleavings(fig1.transactions), 20
        )
        result = census(population, fig1.spec, consistency_budget=1)
        assert result.total == 20
        assert result.undecided_consistent == 20

    def test_disabled_consistency_counts_nothing(self):
        txs = _small_txs()
        result = census_exhaustive(
            txs, absolute_spec(txs), consistency_budget=None
        )
        assert result.relatively_consistent == 0
        assert result.undecided_consistent == result.total

    def test_figure4_witness_recorded(self, fig4):
        result = census(
            [fig4.schedule("S")], fig4.spec, consistency_budget=100_000
        )
        assert (
            "relatively serial, not relatively consistent"
            in result.witnesses
        )


class TestFigure4Golden:
    """The exhaustive census of Figure 4 (2520 interleavings) is pinned:
    counts, and — since enumeration order is fixed — the exact
    first-found witness schedules."""

    def test_matches_the_checked_in_census(self):
        repo = Path(__file__).resolve().parents[2]
        problem = parse_problem((repo / "examples" / "figure4.txt").read_text())
        result = census_exhaustive(problem.transactions, problem.spec, 100_000)
        golden = json.loads(
            (repo / "tests" / "golden" / "figure4_census.json").read_text()
        )
        witnesses = golden.pop("witnesses")
        for name, count in golden.items():
            assert getattr(result, name) == count, name
        assert {
            name: str(schedule) for name, schedule in result.witnesses.items()
        } == witnesses
