"""Unit tests for the scheduler base-class contract."""

import random

import pytest

from repro.core.operations import Operation
from repro.core.transactions import Transaction
from repro.errors import ProtocolError
from repro.protocols import PROTOCOL_NAMES, make_scheduler
from repro.protocols.base import Decision, Outcome, Scheduler
from repro.specs.builders import absolute_spec


class _AlwaysGrant(Scheduler):
    """Trivial scheduler: grants everything (for contract tests)."""

    name = "always-grant"

    def _decide(self, op: Operation) -> Outcome:
        return Outcome.grant()


@pytest.fixture()
def tx():
    return Transaction.from_notation(1, "r[x] w[x]")


class TestOutcome:
    def test_factories(self):
        assert Outcome.grant().decision is Decision.GRANT
        assert Outcome.wait().decision is Decision.WAIT
        abort = Outcome.abort(3, 4)
        assert abort.decision is Decision.ABORT
        assert abort.victims == (3, 4)


class TestAdmission:
    def test_double_admit_rejected(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        with pytest.raises(ProtocolError):
            scheduler.admit(tx)

    def test_request_without_admit_rejected(self, tx):
        with pytest.raises(ProtocolError):
            _AlwaysGrant().request(tx[0])


class TestRequestOrdering:
    def test_program_order_enforced(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        with pytest.raises(ProtocolError):
            scheduler.request(tx[1])  # must start with tx[0]

    def test_grant_advances_progress_and_history(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        assert scheduler.progress(1) == 1
        assert scheduler.history == (tx[0],)

    def test_request_after_commit_rejected(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.request(tx[1])
        scheduler.finish(1)
        with pytest.raises(ProtocolError):
            scheduler.request(tx[0])


class TestCommitAndRemove:
    def test_finish_requires_all_operations(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        with pytest.raises(ProtocolError):
            scheduler.finish(1)

    def test_finish_marks_committed(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.request(tx[1])
        scheduler.finish(1)
        assert scheduler.is_committed(1)

    def test_remove_clears_history_and_progress(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.remove(1)
        assert scheduler.progress(1) == 0
        assert scheduler.history == ()

    def test_remove_keeps_other_transactions(self, tx):
        other = Transaction.from_notation(2, "w[y]")
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.admit(other)
        scheduler.request(tx[0])
        scheduler.request(other[0])
        scheduler.remove(1)
        assert scheduler.history == (other[0],)

    def test_remove_committed_rejected(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.request(tx[1])
        scheduler.finish(1)
        with pytest.raises(ProtocolError):
            scheduler.remove(1)

    def test_restart_replays_from_the_start(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.remove(1)
        scheduler.request(tx[0])
        scheduler.request(tx[1])
        scheduler.finish(1)
        assert scheduler.history == (tx[0], tx[1])


class _AlwaysWait(Scheduler):
    """Trivial scheduler: WAITs everything (for watchdog tests)."""

    name = "always-wait"

    def _decide(self, op: Operation) -> Outcome:
        return Outcome.wait()


class TestWatchdog:
    def test_fires_after_threshold_consecutive_waits(self):
        scheduler = _AlwaysWait()
        scheduler.watchdog_threshold = 5
        t1 = Transaction.from_notation(1, "w[x]")
        t2 = Transaction.from_notation(2, "w[y] w[z]")
        scheduler.admit(t1)
        scheduler.admit(t2)
        # Give T2 some progress so the watchdog has a victim (_AlwaysWait
        # never grants, so fake it via the state table).
        scheduler._state_of(2).executed = 1
        outcomes = [scheduler.request(t1.operations[0]) for _ in range(5)]
        assert all(o.decision is Decision.WAIT for o in outcomes[:4])
        assert outcomes[4].decision is Decision.ABORT
        assert outcomes[4].victims == (2,)
        assert scheduler.watchdog_fires == 1

    def test_grant_resets_the_counter(self):
        scheduler = _AlwaysGrant()
        scheduler.watchdog_threshold = 3
        tx = Transaction.from_notation(1, "r[x] w[x]")
        scheduler.admit(tx)
        for op in tx.operations:
            assert scheduler.request(op).decision is Decision.GRANT
        assert scheduler.watchdog_fires == 0

    def test_no_victim_without_progress_keeps_waiting(self):
        scheduler = _AlwaysWait()
        scheduler.watchdog_threshold = 3
        tx = Transaction.from_notation(1, "w[x]")
        scheduler.admit(tx)
        # No live transaction has progress, so there is nothing worth
        # aborting: the watchdog stays silent.
        for _ in range(10):
            assert scheduler.request(tx.operations[0]).decision \
                is Decision.WAIT
        assert scheduler.watchdog_fires == 0

    def test_disabled_with_none_threshold(self):
        scheduler = _AlwaysWait()
        scheduler.watchdog_threshold = None
        t1 = Transaction.from_notation(1, "w[x]")
        scheduler.admit(t1)
        scheduler._state_of(1).executed = 0
        for _ in range(500):
            assert scheduler.request(t1.operations[0]).decision \
                is Decision.WAIT
        assert scheduler.watchdog_fires == 0

    def test_victim_is_cheapest_live_transaction(self):
        scheduler = _AlwaysWait()
        scheduler.watchdog_threshold = 2
        t1 = Transaction.from_notation(1, "w[x] w[y] w[x]")
        t2 = Transaction.from_notation(2, "w[z] w[z]")
        scheduler.admit(t1)
        scheduler.admit(t2)
        scheduler._state_of(1).executed = 2
        scheduler._state_of(2).executed = 1
        scheduler.request(t1.operations[2])
        outcome = scheduler.request(t1.operations[2])
        # T2 has the least progress to throw away.
        assert outcome.decision is Decision.ABORT
        assert outcome.victims == (2,)


class TestDiscard:
    """``discard`` ends a transaction for good, unlike ``remove``."""

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_discarded_transaction_leaves_no_admission(self, protocol):
        first = Transaction.from_notation(1, "r[x] w[x]")
        second = Transaction.from_notation(2, "r[x] w[x]")
        scheduler = make_scheduler(
            protocol, absolute_spec([first, second])
        )
        scheduler.admit(first)
        scheduler.admit(second)
        assert scheduler.request(first[0]).decision is Decision.GRANT
        scheduler.discard(1)
        assert scheduler.admitted_ids == frozenset({2})
        assert all(op.tx != 1 for op in scheduler.history)
        with pytest.raises(ProtocolError):
            scheduler.request(first[0])
        # The survivor runs as if the discarded one never existed.
        for op in second:
            assert scheduler.request(op).decision is Decision.GRANT
        scheduler.finish(2)
        certifier = getattr(scheduler, "_certifier", None)
        if certifier is not None:
            assert all(op.tx != 1 for op in certifier.graph.nodes())

    def test_remove_keeps_the_victim_admitted_for_restart(self, tx):
        scheduler = _AlwaysGrant()
        scheduler.admit(tx)
        scheduler.request(tx[0])
        scheduler.remove(1)
        assert scheduler.admitted_ids == frozenset({1})
        assert scheduler.request(tx[0]).decision is Decision.GRANT

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_discarding_a_blocker_leaves_no_stale_wait_edge(self, protocol):
        # T1 holds x and T2 waits on it; T1 is then discarded while T2
        # is still parked.  A later wait by anyone else runs deadlock
        # detection over every recorded wait edge, which must not name
        # the discarded transaction.
        programs = [
            Transaction.from_notation(1, "w[x] w[z]"),
            Transaction.from_notation(2, "r[x]"),
            Transaction.from_notation(3, "w[y] w[z]"),
            Transaction.from_notation(4, "r[y]"),
        ]
        scheduler = make_scheduler(protocol, absolute_spec(programs))
        for program in programs:
            scheduler.admit(program)
        assert scheduler.request(programs[0][0]).decision is Decision.GRANT
        assert scheduler.request(programs[2][0]).decision is Decision.GRANT
        scheduler.request(programs[1][0])
        scheduler.discard(1)
        assert all(1 not in blockers
                   for blockers in scheduler.wait_edges().values())
        scheduler.request(programs[3][0])
        if scheduler.progress(2) == 0:
            # T2 was parked (the lock-based protocols); x is free now.
            assert scheduler.request(programs[1][0]).decision is Decision.GRANT

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("seed", range(20))
    def test_random_discards_never_strand_a_reference(self, protocol, seed):
        # Service-shaped driving: every abort victim is discarded for
        # good and never restarts, and a waiter retries later.  No
        # request may then trip over a transaction that is gone.
        rng = random.Random(seed)
        programs = [
            Transaction.from_notation(
                tx_id,
                " ".join(
                    f"{rng.choice('rw')}[{rng.choice('abc')}]"
                    for _ in range(rng.randint(1, 4))
                ),
            )
            for tx_id in range(1, 9)
        ]
        scheduler = make_scheduler(protocol, absolute_spec(programs))
        for program in programs:
            scheduler.admit(program)
        live = {program.tx_id: program for program in programs}
        for _ in range(200):
            if not live:
                break
            tx_id = rng.choice(sorted(live))
            if rng.random() < 0.1:
                scheduler.discard(tx_id)
                del live[tx_id]
                continue
            program = live[tx_id]
            outcome = scheduler.request(program[scheduler.progress(tx_id)])
            if outcome.decision is Decision.ABORT:
                for victim in outcome.victims:
                    scheduler.discard(victim)
                    live.pop(victim, None)
            elif scheduler.progress(tx_id) == len(program):
                scheduler.finish(tx_id)
                del live[tx_id]


class TestRemoveFiltersByTransaction:
    """``remove`` drops a victim's ops from the history by transaction
    id; that must equal dropping its executed prefix as a set of
    operations, over seeded restart and discard scripts."""

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_history_equals_the_set_based_filter(self, protocol, seed):
        rng = random.Random(seed)

        programs = {
            tx_id: Transaction.from_notation(
                tx_id,
                " ".join(
                    f"{rng.choice('rw')}[{rng.choice('abc')}]"
                    for _ in range(rng.randint(1, 4))
                ),
            )
            for tx_id in range(1, 9)
        }
        scheduler = make_scheduler(
            protocol, absolute_spec(list(programs.values()))
        )
        for prog in programs.values():
            scheduler.admit(prog)
        live = dict(programs)
        drops = 0

        def drop(tx_id, for_good):
            nonlocal drops
            prog = live[tx_id]
            gone = set(prog.operations[: scheduler.progress(tx_id)])
            expected = [op for op in scheduler.history if op not in gone]
            if for_good:
                scheduler.discard(tx_id)
                del live[tx_id]
            else:
                scheduler.remove(tx_id)
            assert list(scheduler.history) == expected
            drops += 1

        for _ in range(300):
            if not live:
                break
            tx_id = rng.choice(sorted(live))
            roll = rng.random()
            if roll < 0.05:
                drop(tx_id, for_good=True)
                continue
            if roll < 0.1:
                drop(tx_id, for_good=False)
                continue
            prog = live[tx_id]
            outcome = scheduler.request(prog[scheduler.progress(tx_id)])
            if outcome.decision is Decision.ABORT:
                for victim in outcome.victims:
                    if victim in live:
                        drop(victim, for_good=rng.random() < 0.5)
            elif scheduler.progress(tx_id) == len(prog):
                scheduler.finish(tx_id)
                del live[tx_id]
        assert drops
