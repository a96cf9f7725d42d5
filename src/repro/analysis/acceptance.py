"""Acceptance-rate sweeps (experiment E9).

The paper's motivation is that relaxing atomicity "improves concurrency
and allows interleavings among transactions which are non-serializable".
This experiment quantifies that: over random schedule populations, the
fraction accepted by each correctness test as a function of atomic-unit
granularity (from absolute, where RSR == CSR by Lemma 1, down to the
finest units).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.classes import ClassCensus, census
from repro.core.transactions import Transaction
from repro.specs.builders import uniform_spec
from repro.workloads.random_schedules import random_schedules, random_transactions

__all__ = ["AcceptanceRow", "acceptance_sweep", "acceptance_for_spec"]


@dataclass(frozen=True, slots=True)
class AcceptanceRow:
    """One sweep point: acceptance rates at a given unit granularity."""

    unit_size: int
    samples: int
    conflict_serializable: float
    relatively_atomic: float
    relatively_serial: float
    relatively_consistent: float
    relatively_serializable: float

    def as_cells(self) -> tuple[object, ...]:
        """The row in table order."""
        return (
            self.unit_size,
            self.samples,
            self.conflict_serializable,
            self.relatively_atomic,
            self.relatively_consistent,
            self.relatively_serial,
            self.relatively_serializable,
        )


def acceptance_for_spec(
    transactions: Sequence[Transaction],
    spec,
    samples: int,
    seed: int = 0,
    consistency_budget: int | None = 100_000,
    jobs: int | None = 1,
) -> ClassCensus:
    """Census over ``samples`` uniform random schedules under ``spec``.

    ``jobs > 1`` splits the population over worker processes (identical
    result; see :mod:`repro.parallel`).
    """
    rng = random.Random(seed)
    population = random_schedules(transactions, samples, rng)
    return census(population, spec, consistency_budget, jobs=jobs)


def acceptance_sweep(
    n_transactions: int = 3,
    ops_per_transaction: int = 4,
    n_objects: int = 3,
    unit_sizes: Sequence[int] = (4, 3, 2, 1),
    samples: int = 200,
    seed: int = 0,
    consistency_budget: int | None = 100_000,
    jobs: int | None = 1,
) -> list[AcceptanceRow]:
    """Acceptance rates by unit granularity.

    One random transaction set is drawn, then for each ``unit_size`` a
    uniform spec is built (``unit_size >= ops_per_transaction`` is the
    absolute/traditional model; ``1`` the finest) and the *same* random
    schedule population is classified under it — so rates across rows are
    directly comparable (and monotone in the unit granularity).

    ``jobs > 1`` classifies each row's population across worker
    processes (contiguous blocks, ordered merge) — rows are identical
    to the serial sweep.
    """
    transactions = random_transactions(
        n_transactions,
        ops_per_transaction,
        n_objects,
        write_probability=0.5,
        seed=seed,
    )
    population = random_schedules(transactions, samples, seed=seed)
    rows = []
    for unit_size in unit_sizes:
        spec = uniform_spec(transactions, unit_size)
        result = census(population, spec, consistency_budget, jobs=jobs)
        decided = result.total - result.undecided_consistent
        rows.append(
            AcceptanceRow(
                unit_size=unit_size,
                samples=result.total,
                conflict_serializable=result.rate(
                    result.conflict_serializable
                ),
                relatively_atomic=result.rate(result.relatively_atomic),
                relatively_serial=result.rate(result.relatively_serial),
                relatively_consistent=(
                    result.relatively_consistent / decided if decided else 0.0
                ),
                relatively_serializable=result.rate(
                    result.relatively_serializable
                ),
            )
        )
    return rows
