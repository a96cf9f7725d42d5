"""Class census: count memberships over a set of schedules.

Powers the Figure 5 experiment (E5): enumerate (or sample) the schedules
over a transaction set and count how many land in each correctness class.
The census runs every polynomial test on every schedule and the
NP-complete relative-consistency test under a configurable budget, so the
full hierarchy can be tabulated on small instances.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.checkers import is_relatively_atomic, is_relatively_serial
from repro.core.consistent import SearchBudgetExceeded, is_relatively_consistent
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.serializability import is_conflict_serializable
from repro.core.transactions import Transaction
from repro.workloads.enumerate import all_interleavings

__all__ = ["ClassCensus", "census", "census_exhaustive"]


@dataclass
class ClassCensus:
    """Counts of schedules per class, over one schedule population.

    ``undecided_consistent`` counts schedules where the NP-complete
    relative-consistency search exceeded its budget.
    """

    total: int = 0
    serial: int = 0
    conflict_serializable: int = 0
    relatively_atomic: int = 0
    relatively_serial: int = 0
    relatively_consistent: int = 0
    relatively_serializable: int = 0
    undecided_consistent: int = 0
    #: Example schedules witnessing proper inclusions, keyed by a
    #: human-readable separation name.
    witnesses: dict[str, Schedule] = field(default_factory=dict)

    def rate(self, count: int) -> float:
        """``count`` as a fraction of the population."""
        return count / self.total if self.total else 0.0

    def merge(self, other: "ClassCensus") -> "ClassCensus":
        """Fold ``other`` (a census of a *later* population block) in.

        Counts add; witnesses keep the first-found schedule, which under
        an ordered reduce over contiguous blocks is exactly the witness
        the serial sweep would have recorded.  Returns ``self`` (the
        accumulator) for use as a fold step.
        """
        self.total += other.total
        self.serial += other.serial
        self.conflict_serializable += other.conflict_serializable
        self.relatively_atomic += other.relatively_atomic
        self.relatively_serial += other.relatively_serial
        self.relatively_consistent += other.relatively_consistent
        self.relatively_serializable += other.relatively_serializable
        self.undecided_consistent += other.undecided_consistent
        for name, schedule in other.witnesses.items():
            self.witnesses.setdefault(name, schedule)
        return self

    def as_rows(self) -> list[tuple[str, int, float]]:
        """(class, count, fraction) rows, largest class last."""
        pairs = [
            ("serial", self.serial),
            ("relatively atomic", self.relatively_atomic),
            ("relatively consistent", self.relatively_consistent),
            ("relatively serial", self.relatively_serial),
            ("conflict serializable", self.conflict_serializable),
            ("relatively serializable", self.relatively_serializable),
        ]
        return [(name, count, self.rate(count)) for name, count in pairs]


def census(
    schedules: Iterable[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int = 1,
) -> ClassCensus:
    """Count class memberships over ``schedules``.

    Also records separation witnesses: the first schedule found in each
    of the interesting set differences (e.g. relatively serial but not
    relatively consistent — the Figure 4 phenomenon).

    ``jobs > 1`` classifies the population in contiguous blocks across
    worker processes with an ordered merge — same counts and same
    witnesses as the serial call; see
    :func:`repro.parallel.census_schedules`.
    """
    if jobs != 1:
        from repro.parallel.sweeps import census_schedules

        return census_schedules(
            list(schedules), spec, consistency_budget, jobs=jobs
        )
    return _census_schedules(schedules, spec, consistency_budget)


def _census_schedules(
    schedules: Iterable[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None,
) -> ClassCensus:
    """The census fold, building each schedule's RSG from scratch (the
    serial path and every parallel worker run exactly this loop)."""
    result = ClassCensus()
    for schedule in schedules:
        rsg = RelativeSerializationGraph(schedule, spec)
        result.total += 1
        serial = schedule.is_serial
        atomic = is_relatively_atomic(schedule, spec)
        rel_serial = is_relatively_serial(schedule, spec, rsg.dependency)
        csr = is_conflict_serializable(schedule)
        rsr = rsg.is_acyclic
        consistent: bool | None
        if consistency_budget is None:
            consistent = None
        else:
            try:
                consistent = is_relatively_consistent(
                    schedule, spec, max_steps=consistency_budget
                )
            except SearchBudgetExceeded:
                consistent = None

        result.serial += serial
        result.conflict_serializable += csr
        result.relatively_atomic += atomic
        result.relatively_serial += rel_serial
        result.relatively_serializable += rsr
        if consistent is None:
            result.undecided_consistent += 1
        else:
            result.relatively_consistent += consistent

        _record_witness(result, "relatively serial, not relatively atomic",
                        rel_serial and not atomic, schedule)
        if consistent is not None:
            _record_witness(
                result, "relatively serial, not relatively consistent",
                rel_serial and not consistent, schedule)
            _record_witness(
                result, "relatively consistent, not relatively serial",
                consistent and not rel_serial, schedule)
            _record_witness(
                result, "relatively serializable, not relatively consistent",
                rsr and not consistent, schedule)
        _record_witness(result, "relatively serializable, not conflict serializable",
                        rsr and not csr, schedule)
        _record_witness(result, "relatively serializable, not relatively serial",
                        rsr and not rel_serial, schedule)
    return result


def _record_witness(
    result: ClassCensus, name: str, hit: bool, schedule: Schedule
) -> None:
    if hit and name not in result.witnesses:
        result.witnesses[name] = schedule


def census_exhaustive(
    transactions: Sequence[Transaction],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int = 1,
) -> ClassCensus:
    """Census over *every* schedule of the transaction set.

    Schedules are visited in lexicographic enumeration order
    (:func:`~repro.workloads.enumerate.all_interleavings`).  Only
    sensible at small sizes; see
    :func:`repro.workloads.enumerate.count_interleavings` first.

    ``jobs > 1`` fans the schedule space out over worker processes in
    contiguous rank blocks and merges in block order — identical counts
    *and* witnesses; see :func:`repro.parallel.census_exhaustive_parallel`.
    """
    if jobs != 1:
        from repro.parallel.sweeps import census_exhaustive_parallel

        return census_exhaustive_parallel(
            transactions, spec, consistency_budget, jobs=jobs
        )
    return _census_schedules(
        all_interleavings(transactions), spec, consistency_budget
    )
