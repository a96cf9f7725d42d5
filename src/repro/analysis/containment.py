"""Machine-check the Figure 5 containment structure.

Figure 5 draws::

    relatively atomic  ⊆  relatively consistent  ⊆  relatively serializable
    relatively atomic  ⊆  relatively serial      ⊆  relatively serializable

with both inclusions into *relatively serializable* proper (the paper
exhibits Figure 4 for RS ⊄ RC).  :func:`check_containments` verifies the
subset relations on a schedule population and collects witnesses for
every proper inclusion it can observe — any containment violation is a
bug in the implementation (or the theory!), and the tests assert there
are none.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.checkers import is_relatively_atomic, is_relatively_serial
from repro.core.consistent import SearchBudgetExceeded, is_relatively_consistent
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.serializability import is_conflict_serializable

__all__ = ["ContainmentReport", "check_containments"]

#: The subset relations implied by the paper (names match ClassCensus).
EXPECTED_CONTAINMENTS: tuple[tuple[str, str], ...] = (
    ("serial", "relatively serial"),
    ("serial", "conflict serializable"),
    ("relatively atomic", "relatively serial"),
    ("relatively atomic", "relatively consistent"),
    ("relatively serial", "relatively serializable"),
    ("relatively consistent", "relatively serializable"),
    ("conflict serializable", "relatively serializable"),
)


@dataclass
class ContainmentReport:
    """Result of checking the Figure 5 containments on a population.

    Attributes:
        checked: schedules examined.
        violations: ``(smaller class, larger class, schedule)`` triples
            where a schedule was in the smaller class but not the larger —
            must be empty.
        proper_witnesses: for each ``(smaller, larger)`` pair, a schedule
            in the larger class but not the smaller (evidence the
            inclusion is proper on this population), when one exists.
        undecided: schedules whose relative-consistency test ran out of
            budget (excluded from RC-involving checks).
    """

    checked: int = 0
    violations: list[tuple[str, str, Schedule]] = field(default_factory=list)
    proper_witnesses: dict[tuple[str, str], Schedule] = field(
        default_factory=dict
    )
    undecided: int = 0

    @property
    def ok(self) -> bool:
        """Whether every expected containment held."""
        return not self.violations

    def merge(self, other: "ContainmentReport") -> "ContainmentReport":
        """Fold in the report of a *later* population block (ordered
        reduce): counts add, violations concatenate in visit order, and
        proper-inclusion witnesses keep the first-found schedule."""
        self.checked += other.checked
        self.undecided += other.undecided
        self.violations.extend(other.violations)
        for pair, schedule in other.proper_witnesses.items():
            self.proper_witnesses.setdefault(pair, schedule)
        return self


def check_containments(
    schedules: Iterable[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None = 200_000,
    *,
    jobs: int = 1,
) -> ContainmentReport:
    """Check every expected containment over ``schedules``.

    ``jobs > 1`` checks the population in contiguous blocks across
    worker processes with an ordered merge — the same report as the
    serial call; see :func:`repro.parallel.check_containments_parallel`.
    """
    if jobs != 1:
        from repro.parallel.sweeps import check_containments_parallel

        return check_containments_parallel(
            list(schedules), spec, consistency_budget, jobs=jobs
        )
    return _containment_schedules(schedules, spec, consistency_budget)


def _containment_schedules(
    schedules: Iterable[Schedule],
    spec: RelativeAtomicitySpec,
    consistency_budget: int | None,
) -> ContainmentReport:
    """The containment fold, building each schedule's RSG from scratch
    (the serial path and every parallel worker run exactly this loop)."""
    report = ContainmentReport()
    for schedule in schedules:
        rsg = RelativeSerializationGraph(schedule, spec)
        report.checked += 1
        membership: dict[str, bool | None] = {
            "serial": schedule.is_serial,
            "conflict serializable": is_conflict_serializable(schedule),
            "relatively atomic": is_relatively_atomic(schedule, spec),
            "relatively serial": is_relatively_serial(
                schedule, spec, rsg.dependency
            ),
            "relatively serializable": rsg.is_acyclic,
        }
        if consistency_budget is None:
            membership["relatively consistent"] = None
        else:
            try:
                membership["relatively consistent"] = is_relatively_consistent(
                    schedule, spec, max_steps=consistency_budget
                )
            except SearchBudgetExceeded:
                membership["relatively consistent"] = None
        if membership["relatively consistent"] is None:
            report.undecided += 1

        for smaller, larger in EXPECTED_CONTAINMENTS:
            small = membership[smaller]
            large = membership[larger]
            if small is None or large is None:
                continue
            if small and not large:
                report.violations.append((smaller, larger, schedule))
            if large and not small:
                report.proper_witnesses.setdefault(
                    (smaller, larger), schedule
                )
    return report
