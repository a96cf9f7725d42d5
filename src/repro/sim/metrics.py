"""Result and metric types for the simulator.

The simulator's contract: every admitted transaction either commits or —
in fault-injected runs with a bounded retry budget or permanent kill
faults — is *permanently aborted*.  A :class:`SimulationResult` covers
the full transaction set either way: committed transactions carry their
commit tick, permanently aborted ones the tick they died, and
``schedule`` is always the **committed projection** — a complete
:class:`~repro.core.schedules.Schedule` over exactly the committed
transactions that the offline correctness tests can re-verify.

Fault campaigns need degradation numbers, not just pass/fail, so the
result also exposes abort/retry/restart counters and wait-time
percentiles.  Percentiles go through the fixed-boundary
:class:`~repro.obs.hist.Histogram` — the same bucketed path the service
latency metrics use — so they are exact integers, byte-stable across
platforms, and mergeable across workers without shipping raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.core.schedules import Schedule
from repro.obs.hist import Histogram

__all__ = ["TransactionOutcome", "SimulationResult"]

#: Outcome statuses.
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class TransactionOutcome:
    """Per-transaction accounting.

    Attributes:
        tx_id: the transaction.
        arrival: tick the transaction became ready.
        commit_tick: tick its last operation was granted — or, for a
            permanently aborted transaction, the tick it was abandoned.
        restarts: how many times it was aborted and restarted.
        waits: how many of its requests returned WAIT.
        status: ``"committed"`` or ``"aborted"`` (permanent).
    """

    tx_id: int
    arrival: int
    commit_tick: int
    restarts: int
    waits: int
    status: str = COMMITTED

    @property
    def is_committed(self) -> bool:
        """Whether the transaction committed (vs. permanently aborted)."""
        return self.status == COMMITTED

    @property
    def response_time(self) -> int:
        """Ticks from arrival to commit (inclusive of the commit tick).

        For a permanently aborted transaction this is the time it
        occupied the system before being abandoned.
        """
        return self.commit_tick - self.arrival + 1


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes:
        protocol: the scheduler's protocol name.
        schedule: the committed projection as a verifiable schedule.
        outcomes: per-transaction accounting, keyed by id.
        makespan: tick of the last commit (plus one: total ticks used).
        roles: optional transaction roles (copied from the workload).
    """

    protocol: str
    schedule: Schedule
    outcomes: dict[int, TransactionOutcome]
    makespan: int
    roles: dict[int, str] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        """Number of committed transactions (the full set, fault-free)."""
        return sum(
            1 for outcome in self.outcomes.values() if outcome.is_committed
        )

    @property
    def aborted(self) -> int:
        """Number of permanently aborted transactions (0 fault-free)."""
        return len(self.outcomes) - self.committed

    @property
    def survivor_ids(self) -> tuple[int, ...]:
        """Ids of the committed transactions, ascending."""
        return tuple(
            sorted(
                tx_id
                for tx_id, outcome in self.outcomes.items()
                if outcome.is_committed
            )
        )

    @property
    def total_restarts(self) -> int:
        """Total aborts/restarts across all transactions."""
        return sum(outcome.restarts for outcome in self.outcomes.values())

    @property
    def total_waits(self) -> int:
        """Total WAIT responses across all transactions."""
        return sum(outcome.waits for outcome in self.outcomes.values())

    @property
    def throughput(self) -> float:
        """Committed transactions per tick."""
        return self.committed / self.makespan if self.makespan else 0.0

    @property
    def mean_response_time(self) -> float:
        """Average ticks from arrival to commit, over committed txs."""
        times = [
            outcome.response_time
            for outcome in self.outcomes.values()
            if outcome.is_committed
        ]
        return mean(times) if times else 0.0

    def wait_percentiles(
        self, percentiles: tuple[float, ...] = (50, 90, 99)
    ) -> dict[str, int]:
        """Bucketed percentiles of per-transaction wait counts.

        Keys are ``"p50"``-style labels; an empty transaction set yields
        zeros under the same keys (report shapes stay constant).
        Values are power-of-two bucket upper bounds clamped to the
        observed maximum (see :class:`~repro.obs.hist.Histogram`), so
        campaign reports comparing these are byte-stable and two runs'
        histograms merge exactly.
        """
        return Histogram.from_values(
            outcome.waits for outcome in self.outcomes.values()
        ).percentiles(percentiles)

    def degradation(self) -> dict[str, object]:
        """Abort/retry/wait summary for fault-campaign reporting."""
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "restarts": self.total_restarts,
            "waits": self.total_waits,
            "wait_percentiles": self.wait_percentiles(),
        }

    def mean_response_time_of(self, role: str) -> float | None:
        """Average response time of one role, or ``None`` if absent."""
        times = [
            outcome.response_time
            for tx_id, outcome in self.outcomes.items()
            if self.roles.get(tx_id) == role and outcome.is_committed
        ]
        return mean(times) if times else None

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.protocol}, committed={self.committed}, "
            f"makespan={self.makespan}, restarts={self.total_restarts})"
        )
