"""Ranked schedule-space partitioning for the analysis sweeps.

The census, acceptance, and containment sweeps are all left folds over
an ordered stream of classified schedules.  This module splits those
streams into contiguous blocks, classifies each block in a worker
process, and merges the partial results in block order — so the
parallel result is the *same fold*, just reassociated, and counts,
violations, and first-found witnesses come out identical to the serial
sweep.

Shared-nothing discipline (see :mod:`repro.parallel.registry`):

* the sweep's shared inputs — transactions, spec, budget, or the whole
  population — are registered once and shipped to the warm worker
  pool once per pool build, never per task;
* tasks are flat integer tuples ``(ctx_id, lo, hi)``: a rank window
  into the interleaving space for exhaustive sweeps, an index window
  into the registered population for population sweeps;
* each worker runs the serial fold (one from-scratch
  :class:`~repro.core.rsg.RelativeSerializationGraph` per schedule)
  over its block — one small
  :class:`~repro.analysis.classes.ClassCensus` /
  :class:`~repro.analysis.containment.ContainmentReport` summary
  crosses the boundary per chunk, not per schedule.

The population keeps its input order (blocks are contiguous windows of
it), so first-found witnesses match the serial call at any job count.

Sweeps smaller than one minimum block run inline and never touch the
pool.  Workers are module-level functions over picklable tuples, as
:mod:`multiprocessing` requires.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.classes import ClassCensus, _census_schedules
from repro.analysis.containment import (
    ContainmentReport,
    _containment_schedules,
)
from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.parallel import registry
from repro.parallel.executor import ParallelExecutor, plan_block_count
from repro.workloads.enumerate import (
    count_interleavings,
    interleaving_blocks,
    interleavings_block,
)

__all__ = [
    "census_exhaustive_parallel",
    "census_schedules",
    "check_containments_parallel",
]

#: Minimum schedules per block for population sweeps.  Populations are
#: classified with the NP-complete consistency test in the loop, so a
#: block amortizes its overhead at a fraction of the rank-sweep
#: minimum.
MIN_POPULATION_BLOCK = 32


# ----------------------------------------------------------------------
# Exhaustive census over the ranked schedule space
# ----------------------------------------------------------------------
def _census_rank_block(task: tuple[int, int, int]) -> ClassCensus:
    """Worker: census the interleavings with ranks in ``[lo, hi)``."""
    ctx_id, lo, hi = task
    transactions, spec, budget = registry.resolve(ctx_id)
    return _census_schedules(
        interleavings_block(transactions, lo, hi), spec, budget
    )


def census_exhaustive_parallel(
    transactions: Sequence[Transaction],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int | None = 1,
    min_block: int | None = None,
) -> ClassCensus:
    """Exhaustive class census, fanned out over rank blocks.

    Identical to :func:`repro.analysis.classes.census_exhaustive` —
    same counts *and* same witnesses, because blocks partition the
    lexicographic enumeration contiguously and merge in rank order.
    ``min_block`` overrides the per-block rank floor (tests force small
    blocks through the pool; the default keeps tiny sweeps inline).
    """
    executor = ParallelExecutor(jobs)
    transactions = list(transactions)
    total = count_interleavings(transactions)
    kwargs = {} if min_block is None else {"min_block": min_block}
    blocks = plan_block_count(total, executor.jobs, **kwargs)
    if executor.jobs <= 1 or blocks <= 1:
        from repro.analysis.classes import census_exhaustive

        return census_exhaustive(transactions, spec, consistency_budget)
    ctx_id = registry.register((transactions, spec, consistency_budget))
    tasks = [
        (ctx_id, lo, hi)
        for lo, hi in interleaving_blocks(transactions, blocks)
    ]
    return executor.map_reduce(
        _census_rank_block, tasks, ClassCensus.merge, ClassCensus()
    )


# ----------------------------------------------------------------------
# Population sweeps (random schedule lists)
# ----------------------------------------------------------------------
def _census_slice(task: tuple[int, int, int]) -> ClassCensus:
    """Worker: census one window of the registered population."""
    ctx_id, lo, hi = task
    population, spec, budget = registry.resolve(ctx_id)
    return _census_schedules(population[lo:hi], spec, budget)


def census_schedules(
    schedules: Sequence[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int | None = 1,
    min_block: int | None = None,
) -> ClassCensus:
    """Census a schedule population across worker processes.

    The population is registered as one shared context and split into
    contiguous index windows; the ordered merge makes the result
    identical to the serial ``census(schedules, spec)``.
    """
    executor = ParallelExecutor(jobs)
    tasks = _population_tasks(
        schedules, spec, consistency_budget, executor.jobs, min_block
    )
    if tasks is None:
        return _census_schedules(schedules, spec, consistency_budget)
    return executor.map_reduce(
        _census_slice, tasks, ClassCensus.merge, ClassCensus()
    )


def _containment_slice(task: tuple[int, int, int]) -> ContainmentReport:
    """Worker: containment-check one window of the population."""
    ctx_id, lo, hi = task
    population, spec, budget = registry.resolve(ctx_id)
    return _containment_schedules(population[lo:hi], spec, budget)


def check_containments_parallel(
    schedules: Sequence[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int | None = 1,
    min_block: int | None = None,
) -> ContainmentReport:
    """Containment check across worker processes (population
    registered once, contiguous index windows, ordered merge) —
    identical to the serial ``check_containments(schedules, spec)``."""
    executor = ParallelExecutor(jobs)
    tasks = _population_tasks(
        schedules, spec, consistency_budget, executor.jobs, min_block
    )
    if tasks is None:
        return _containment_schedules(schedules, spec, consistency_budget)
    return executor.map_reduce(
        _containment_slice, tasks, ContainmentReport.merge, ContainmentReport()
    )


def _population_tasks(
    population: Sequence[Schedule],
    spec: RelativeAtomicitySpec,
    budget: int | None,
    workers: int,
    min_block: int | None,
) -> list[tuple[int, int, int]] | None:
    """Flat ``(ctx_id, lo, hi)`` tasks over a population.

    ``None`` signals the caller to run inline: one block (or one
    worker) means the pool would only add overhead.
    """
    floor = MIN_POPULATION_BLOCK if min_block is None else min_block
    blocks = plan_block_count(len(population), workers, min_block=floor)
    if workers <= 1 or blocks <= 1:
        return None
    ctx_id = registry.register((tuple(population), spec, budget))
    return [
        (ctx_id, lo, hi)
        for lo, hi in _windows(len(population), blocks)
    ]


def _windows(total: int, blocks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into contiguous near-equal index windows."""
    base, extra = divmod(total, blocks)
    out = []
    start = 0
    for i in range(blocks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        out.append((start, start + size))
        start += size
    return out
