"""Unit tests for the simulation metric types."""

from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.sim.metrics import SimulationResult, TransactionOutcome


def _result():
    txs = [
        Transaction.from_notation(1, "r[x]"),
        Transaction.from_notation(2, "w[y]"),
    ]
    schedule = Schedule.serial(txs)
    outcomes = {
        1: TransactionOutcome(
            tx_id=1, arrival=0, commit_tick=4, restarts=1, waits=2
        ),
        2: TransactionOutcome(
            tx_id=2, arrival=2, commit_tick=9, restarts=0, waits=3
        ),
    }
    return SimulationResult(
        protocol="test",
        schedule=schedule,
        outcomes=outcomes,
        makespan=10,
        roles={1: "short", 2: "long"},
    )


class TestTransactionOutcome:
    def test_response_time_inclusive(self):
        outcome = TransactionOutcome(
            tx_id=1, arrival=3, commit_tick=7, restarts=0, waits=0
        )
        assert outcome.response_time == 5


class TestSimulationResult:
    def test_committed_counts_outcomes(self):
        assert _result().committed == 2

    def test_totals(self):
        result = _result()
        assert result.total_restarts == 1
        assert result.total_waits == 5

    def test_throughput(self):
        assert _result().throughput == 0.2

    def test_throughput_of_empty_run_is_zero(self):
        result = _result()
        result.makespan = 0
        assert result.throughput == 0.0

    def test_mean_response_time(self):
        # (5 + 8) / 2
        assert _result().mean_response_time == 6.5

    def test_role_filtered_response_time(self):
        result = _result()
        assert result.mean_response_time_of("short") == 5
        assert result.mean_response_time_of("long") == 8
        assert result.mean_response_time_of("nope") is None


class TestFaultAccounting:
    def _mixed(self):
        from repro.sim.metrics import ABORTED

        txs = [
            Transaction.from_notation(1, "r[x]"),
            Transaction.from_notation(2, "w[y]"),
        ]
        schedule = Schedule.serial([txs[0]])
        outcomes = {
            1: TransactionOutcome(
                tx_id=1, arrival=0, commit_tick=4, restarts=1, waits=2
            ),
            2: TransactionOutcome(
                tx_id=2,
                arrival=0,
                commit_tick=7,
                restarts=3,
                waits=9,
                status=ABORTED,
            ),
        }
        return SimulationResult(
            protocol="test",
            schedule=schedule,
            outcomes=outcomes,
            makespan=5,
        )

    def test_committed_excludes_the_dead(self):
        result = self._mixed()
        assert result.committed == 1
        assert result.aborted == 1
        assert result.survivor_ids == (1,)

    def test_totals_still_count_everyone(self):
        result = self._mixed()
        assert result.total_restarts == 4
        assert result.total_waits == 11

    def test_mean_response_time_over_committed_only(self):
        result = self._mixed()
        assert result.mean_response_time == 5.0

    def test_degradation_summary(self):
        degradation = self._mixed().degradation()
        assert degradation["committed"] == 1
        assert degradation["aborted"] == 1
        assert degradation["restarts"] == 4


class TestWaitPercentiles:
    def test_wait_percentiles_keys_and_values(self):
        # Bucketed percentiles (repro.obs.hist.Histogram): waits of 2
        # and 3 share the [2, 3] power-of-two bucket, whose upper bound
        # 3 is what every percentile reports.
        result = _result()
        percentiles = result.wait_percentiles()
        assert set(percentiles) == {"p50", "p90", "p99"}
        assert percentiles["p50"] == 3
        assert percentiles["p99"] == 3

    def test_wait_percentiles_clamp_to_observed_maximum(self):
        txs = [Transaction.from_notation(1, "r[x]")]
        outcomes = {
            1: TransactionOutcome(
                tx_id=1, arrival=0, commit_tick=4, restarts=0, waits=5
            ),
        }
        result = SimulationResult(
            protocol="test",
            schedule=Schedule.serial(txs),
            outcomes=outcomes,
            makespan=5,
        )
        # 5 lands in the [4, 7] bucket but the clamp keeps p99 exact.
        assert result.wait_percentiles()["p99"] == 5

    def test_wait_percentiles_of_empty_run(self):
        result = SimulationResult(
            protocol="test",
            schedule=Schedule([], []),
            outcomes={},
            makespan=0,
        )
        assert result.wait_percentiles() == {"p50": 0, "p90": 0, "p99": 0}
