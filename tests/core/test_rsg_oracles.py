"""The offline Theorem 1 path against oracles that share none of its code.

``RelativeSerializationGraph`` works in integer id-space throughout: a
covering-set closure for ``depends-on``, an arc scan that visits only
the transactions present in a dependents row, and a Kahn witness sort
over int successor lists.  Each piece is checked here against a
construction written straight from the paper's definitions:

* the closure against direct pairs plus Warshall;
* the arc set (and its insertion order, which fixes the cycle witness)
  against Definition 3 built from the oracle's cross-transaction pairs
  (which ``cross_transaction_pairs()`` must reproduce) and the spec's
  atomic units;
* the cycle against a three-colour DFS over that oracle arc list, under
  every ablation switch;
* the witness against ``graphs.toposort`` on the labelled graph.

Inputs: a seeded ``random_spec`` corpus, the paper's Figures 1-4, and
two committed projections of service-shaped traffic driven through a
``Tenant``.
"""

import functools
import random

import pytest

from repro.core.dependency import DependencyRelation
from repro.core.operations import OpType
from repro.core.rsg import ArcKind, RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.graphs.toposort import topological_sort
from repro.paper import figure1, figure2, figure3, figure4
from repro.service.tenant import Tenant
from tests.core.test_rsg import _seeded_corpus

#: ``(include_f_arcs, include_b_arcs, transitive_dependencies)``.
ABLATIONS = [
    (True, True, True),
    (False, True, True),
    (True, False, True),
    (False, False, True),
    (True, True, False),
]


def _drive(programs, seed, concurrency=6):
    """Run ``programs`` (``(text, cuts)`` pairs) through an ``rsgt``
    tenant with interleaved sessions; returns the committed projection
    and its spec, as the drain certificate sees them."""
    rng = random.Random(seed)
    keys = {f"a{i}" for i in range(64)} | {f"k{i}" for i in range(16)}
    tenant = Tenant("t", "rsgt", {key: 0 for key in sorted(keys)})
    source = iter(programs)
    open_sessions = []
    next_id = 0
    exhausted = False
    while True:
        while len(open_sessions) < concurrency and not exhausted:
            program = next(source, None)
            if program is None:
                exhausted = True
                break
            next_id += 1
            open_sessions.append(
                tenant.new_session(
                    next_id, *program, now=0.0, deadline=1e9
                )
            )
        if not open_sessions:
            break
        session = rng.choice(open_sessions)
        if session.remaining_ops:
            for closed in tenant.step(session).closed:
                open_sessions.remove(closed)
        else:
            tenant.commit(session)
            open_sessions.remove(session)
    survivors = sorted(tenant.committed)
    projection = Schedule(
        [tenant.committed[tx_id] for tx_id in survivors],
        tuple(
            op for op in tenant.scheduler.history if op.tx in tenant.committed
        ),
    )
    return tenant, projection, tenant.spec.restricted_to(survivors)


def _rw_programs(seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        key = f"k{rng.randrange(16)}"
        yield f"r[{key}] w[{key}]", ()


def _bank_programs(seed, count=80):
    """Transfers cut after the debit, plus one absolute audit in ten."""
    rng = random.Random(seed)
    accounts = [f"a{i}" for i in range(64)]
    for index in range(count):
        if index % 10 == 9:
            audit = rng.sample(accounts, 8)
            yield " ".join(f"r[{a}]" for a in audit), ()
        else:
            a, b = rng.sample(accounts, 2)
            yield f"r[{a}] w[{a}] r[{b}] w[{b}]", (2,)


def _figure_cases():
    for make in (figure1, figure2, figure3, figure4):
        figure = make()
        for name in sorted(figure.schedules):
            yield figure.schedule(name), figure.spec


@functools.cache
def _service_case(name):
    programs = _rw_programs(1) if name == "rw" else _bank_programs(2)
    _, projection, spec = _drive(programs, seed=3)
    return projection, spec


def _cases(source):
    if source == "corpus":
        return _seeded_corpus(15, 120)
    if source == "figures":
        return list(_figure_cases())
    return [_service_case(source)]


SOURCES = ["corpus", "figures", "rw", "bank"]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _direct_rows(schedule):
    """Direct ``depends-on`` from the paper: ``q`` after ``p`` in the same
    transaction, or on the same object with at least one write."""
    ops = schedule.operations
    rows = []
    for p, earlier in enumerate(ops):
        bits = 0
        for q in range(p + 1, len(ops)):
            later = ops[q]
            if later.tx == earlier.tx or (
                later.obj == earlier.obj
                and OpType.WRITE in (later.op_type, earlier.op_type)
            ):
                bits |= 1 << q
        rows.append(bits)
    return rows


def _warshall(rows):
    closed = list(rows)
    for k in range(len(closed)):
        bit = 1 << k
        row_k = closed[k]
        for i in range(k):
            if closed[i] & bit:
                closed[i] |= row_k
    return closed


def _definition3(schedule, spec, include_f, include_b, transitive):
    """Definition 3, as an ordered ``{(src, dst): kinds}`` dict.

    Insertion order is the paper's reading order: I-arcs transaction by
    transaction, then per earlier operation (schedule order) its
    dependents grouped by observing transaction (transaction order),
    each contributing its D-, F- and B-arc.
    """
    transactions = schedule.transactions
    rank = {tx_id: r for r, tx_id in enumerate(transactions)}
    arcs = {}

    def add(src, dst, kind):
        arcs.setdefault((src, dst), set()).add(kind)

    for transaction in transactions.values():
        for a, b in zip(transaction.operations, transaction.operations[1:]):
            add(a, b, ArcKind.INTERNAL)
    # The D-arc pairs come from the oracle rows, and must be exactly
    # what the library's cross_transaction_pairs() reports.
    ops = schedule.operations
    rows = _direct_rows(schedule)
    if transitive:
        rows = _warshall(rows)
    pairs = [
        (earlier, ops[q])
        for p, earlier in enumerate(ops)
        for q in range(p + 1, len(ops))
        if rows[p] >> q & 1 and ops[q].tx != earlier.tx
    ]
    relation = DependencyRelation(schedule, transitive=transitive)
    assert list(relation.cross_transaction_pairs()) == pairs
    dependents = {}
    for earlier, later in pairs:
        dependents.setdefault(earlier, []).append(later)
    for earlier in schedule.operations:
        group = sorted(dependents.get(earlier, ()), key=lambda op: rank[op.tx])
        for later in group:
            add(earlier, later, ArcKind.DEPENDENCY)
            if include_f:
                unit = spec.atomicity(earlier.tx, later.tx).unit_of(
                    earlier.index
                )
                push = transactions[earlier.tx][unit.end]
                add(push, later, ArcKind.PUSH_FORWARD)
            if include_b:
                unit = spec.atomicity(later.tx, earlier.tx).unit_of(
                    later.index
                )
                pull = transactions[later.tx][unit.start]
                add(earlier, pull, ArcKind.PULL_BACKWARD)
    return arcs


def _reference_cycle(schedule, arcs):
    """Three-colour DFS over the oracle arc list: roots in transaction
    then program order, each node's successors last-inserted first."""
    nodes = [
        op
        for tx_id in sorted(schedule.transactions)
        for op in schedule.transactions[tx_id].operations
    ]
    succ = {op: [] for op in nodes}
    for src, dst in arcs:
        succ[src].append(dst)
    colour = dict.fromkeys(nodes, 0)
    parent = {}
    for root in nodes:
        if colour[root]:
            continue
        colour[root] = 1
        stack = [root]
        while stack:
            node = stack[-1]
            if succ[node]:
                child = succ[node].pop()
                if colour[child] == 0:
                    colour[child] = 1
                    parent[child] = node
                    stack.append(child)
                elif colour[child] == 1:
                    path = [node]
                    while path[-1] != child:
                        path.append(parent[path[-1]])
                    return path[::-1] + [child]
            else:
                colour[node] = 2
                stack.pop()
    return None


# ----------------------------------------------------------------------
# (a) witness == graphs.toposort on the labelled graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", SOURCES)
def test_witness_equals_toposort_oracle(source):
    acyclic = 0
    for schedule, spec in _cases(source):
        rsg = RelativeSerializationGraph(schedule, spec)
        if not rsg.is_acyclic:
            continue
        acyclic += 1
        witness = rsg.equivalent_relatively_serial_schedule()
        oracle = RelativeSerializationGraph(schedule, spec)
        expected = topological_sort(oracle.graph, key=schedule.position)
        assert list(witness.operations) == expected
    assert acyclic


# ----------------------------------------------------------------------
# (b) depends-on rows == direct pairs (+ Warshall)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", SOURCES)
def test_dependency_rows_equal_definition(source):
    for schedule, _spec in _cases(source):
        direct = _direct_rows(schedule)
        assert DependencyRelation(schedule, transitive=False)._reach == direct
        assert DependencyRelation(schedule)._reach == _warshall(direct)


# ----------------------------------------------------------------------
# (c) arc sets (and order) == Definition 3
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("ablation", ABLATIONS, ids=str)
def test_arcs_equal_definition3(source, ablation):
    include_f, include_b, transitive = ablation
    for schedule, spec in _cases(source):
        rsg = RelativeSerializationGraph(
            schedule,
            spec,
            include_f_arcs=include_f,
            include_b_arcs=include_b,
            transitive_dependencies=transitive,
        )
        oracle = _definition3(schedule, spec, *ablation)
        for kind in ArcKind:
            assert set(rsg.arcs(kind)) == {
                arc for arc, kinds in oracle.items() if kind in kinds
            }
        table = rsg._ops_table
        total = len(table)
        assert [
            (table[key // total], table[key % total]) for key in rsg._arc_masks
        ] == list(oracle)


# ----------------------------------------------------------------------
# (d) cycle witness == reference DFS, under every ablation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", SOURCES)
def test_cycle_matches_reference_under_ablations(source):
    for schedule, spec in _cases(source):
        for include_f, include_b, transitive in ABLATIONS:
            rsg = RelativeSerializationGraph(
                schedule,
                spec,
                include_f_arcs=include_f,
                include_b_arcs=include_b,
                transitive_dependencies=transitive,
            )
            oracle = _definition3(
                schedule, spec, include_f, include_b, transitive
            )
            assert rsg.cycle == _reference_cycle(schedule, oracle)
            # The cycle is found before (and independently of) any
            # labelled-graph build.
            assert rsg._graph_cache is None


def test_corpus_exercises_both_verdicts():
    verdicts = {
        RelativeSerializationGraph(schedule, spec).is_acyclic
        for schedule, spec in _cases("corpus")
    }
    assert verdicts == {True, False}


# ----------------------------------------------------------------------
# The drain path never builds the labelled graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", ["figures", "bank"])
def test_verdict_and_witness_never_build_the_graph(source):
    for schedule, spec in _cases(source):
        rsg = RelativeSerializationGraph(schedule, spec)
        if rsg.is_acyclic:
            rsg.equivalent_relatively_serial_schedule()
        assert rsg._graph_cache is None


def test_tenant_certify_never_builds_the_graph(monkeypatch):
    tenant, projection, _spec = _drive(_bank_programs(4, 40), seed=5)

    def _refuse(self):
        raise AssertionError("drain certificate built the labelled graph")

    monkeypatch.setattr(RelativeSerializationGraph, "_build_graph", _refuse)
    result = tenant.certify()
    assert result.ok
    assert result.witness_ok is True
    assert len(result.survivors) == len(projection.transactions)
