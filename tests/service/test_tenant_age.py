"""Bounded certifier state at any server age (counts, not timings).

Drives :class:`~repro.service.tenant.Tenant` directly through thousands
of transactions and checks that the certifier's live window (history
length and graph nodes) stays under a bound that does not depend on how
many transactions ran, while the committed count keeps growing.
"""

import random

import pytest

from repro.protocols.certifier import RsgCertifier
from repro.service.tenant import Tenant

N = 2000

#: Live-window bound: a compaction runs once the window has doubled
#: (past the floor), so with few concurrent sessions the window never
#: grows much past twice the floor.
BOUND = 4 * RsgCertifier._compact_floor

ACCOUNTS = [f"a{i}" for i in range(64)]


def _serial_programs(rng):
    while True:
        yield "r[x] w[x]", ()


def _bank_programs(rng):
    """Transfers cut after the debit, plus one absolute audit in ten."""
    count = 0
    while True:
        count += 1
        if count % 10 == 0:
            audit = rng.sample(ACCOUNTS, 8)
            yield " ".join(f"r[{a}]" for a in audit), ()
        else:
            a, b = rng.sample(ACCOUNTS, 2)
            yield f"r[{a}] w[{a}] r[{b}] w[{b}]", (2,)


def _drive(programs, concurrency, seed):
    """Run until ``N`` commits; returns (tenant, peak window, peak nodes)
    over the second half of the run."""
    rng = random.Random(seed)
    tenant = Tenant("t", "rsgt", {key: 0 for key in ACCOUNTS + ["x"]})
    source = programs(rng)
    open_sessions = []
    next_id = 0
    peak_history = peak_nodes = 0
    while len(tenant.committed) < N:
        while len(open_sessions) < concurrency:
            next_id += 1
            text, cuts = next(source)
            open_sessions.append(
                tenant.new_session(next_id, text, cuts, now=0.0, deadline=1e9)
            )
        session = rng.choice(open_sessions)
        if session.remaining_ops:
            result = tenant.step(session)
            for closed in result.closed:
                open_sessions.remove(closed)
        else:
            tenant.commit(session)
            open_sessions.remove(session)
            if len(tenant.committed) > N // 2:
                rsg = tenant.scheduler.snapshot()["rsg"]
                peak_history = max(peak_history, rsg["history"])
                peak_nodes = max(peak_nodes, rsg["nodes"])
    return tenant, peak_history, peak_nodes


@pytest.mark.parametrize(
    "programs, concurrency",
    [(_serial_programs, 1), (_bank_programs, 4)],
    ids=["serial-rw", "rel-bank"],
)
def test_live_window_is_bounded_at_any_age(programs, concurrency):
    tenant, peak_history, peak_nodes = _drive(programs, concurrency, seed=3)
    rsg = tenant.scheduler.snapshot()["rsg"]
    assert len(tenant.committed) == N
    assert peak_history <= BOUND
    assert peak_nodes <= BOUND
    assert rsg["retired"] >= N - BOUND
    assert rsg["fallback_rebuilds"] == 0


def test_aborted_sessions_are_dropped_for_good():
    tenant = Tenant("t", "rsgt", {"x": 0})
    first = tenant.new_session(1, "r[x] w[x]", (), now=0.0, deadline=1e9)
    second = tenant.new_session(2, "r[x] w[x]", (), now=0.0, deadline=1e9)
    tenant.step(first)
    tenant.step(second)
    tenant.step(first)
    result = tenant.step(second)  # closes the cycle: T2 aborts
    assert result.status == "aborted" and result.self_aborted
    tenant.abort(first, "client")
    snap = tenant.scheduler.snapshot()
    assert snap["admitted"] == 0
    assert snap["rsg"]["nodes"] == 0
    assert snap["rsg"]["history"] == 0
    assert tenant.scheduler.admitted_ids == frozenset()


@pytest.mark.parametrize("protocol", ["2pl", "altruistic", "rel-locking"])
def test_killing_a_blocker_keeps_other_sessions_served(protocol):
    # T1 holds x and T2 waits on it; T1 is then aborted while T2 stays
    # parked.  Another session's conflicting request must still get a
    # WAIT or a grant, not an error about the gone T1.
    tenant = Tenant("t", protocol, {"x": 0, "y": 0})
    first = tenant.new_session(1, "w[x] w[x]", (), now=0.0, deadline=1e9)
    second = tenant.new_session(2, "r[x]", (), now=0.0, deadline=1e9)
    third = tenant.new_session(3, "w[y] r[x] w[y]", (), now=0.0, deadline=1e9)
    fourth = tenant.new_session(4, "r[y]", (), now=0.0, deadline=1e9)
    assert tenant.step(first).status == "granted"
    assert tenant.step(third).status == "granted"
    assert tenant.step(second).status == "wait"
    tenant.abort(first, "client")
    assert tenant.step(fourth).status == "wait"
    assert tenant.step(second).status == "granted"
    tenant.commit(second)
    assert tenant.step(third).status == "granted"
    assert tenant.step(third).status == "granted"
    tenant.commit(third)
    assert tenant.step(fourth).status == "granted"
    tenant.commit(fourth)
    assert tenant.certify().ok
