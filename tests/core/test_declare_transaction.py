"""Interactive spec growth: ``RelativeAtomicitySpec.declare_transaction``.

Declared transactions store only their cuts; every pair's view is
derived on demand.  The tests compare the derived views with an eager
oracle built pair by pair from the definition: an explicit view when one
was given at construction, else the owner's declared cuts (absolute when
it declared none).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.atomicity import Atomicity, RelativeAtomicitySpec
from repro.core.operations import read, write
from repro.core.transactions import Transaction
from repro.errors import InvalidSpecError, MissingSpecError


def _expected(transactions, explicit, declared_cuts):
    """The eager oracle: every ordered pair's view, from the definition."""
    by_id = {tx.tx_id: tx for tx in transactions}
    views = {}
    for tx_id, transaction in by_id.items():
        for observer in by_id:
            if observer == tx_id:
                continue
            cuts = explicit.get(
                (tx_id, observer), declared_cuts.get(tx_id, ())
            )
            views[(tx_id, observer)] = Atomicity(
                tx_id, observer, len(transaction), cuts
            )
    return views


@st.composite
def populations(draw):
    """Construction-time transactions with explicit views, plus declared
    transactions with cuts, in a random arrival order."""
    n_static = draw(st.integers(0, 3))
    n_declared = draw(st.integers(1, 5))
    transactions = []
    for tx_id in range(1, n_static + n_declared + 1):
        length = draw(st.integers(1, 4))
        ops = [
            write("x") if draw(st.booleans()) else read("y")
            for _ in range(length)
        ]
        transactions.append(Transaction(tx_id, ops))
    static, declared = transactions[:n_static], transactions[n_static:]
    explicit = {}
    for tx in static:
        for other in static:
            if tx.tx_id != other.tx_id and draw(st.booleans()):
                explicit[(tx.tx_id, other.tx_id)] = tuple(
                    p for p in range(1, len(tx)) if draw(st.booleans())
                )
    declared_cuts = {
        tx.tx_id: tuple(p for p in range(1, len(tx)) if draw(st.booleans()))
        for tx in declared
    }
    order = draw(st.permutations(declared))
    return static, explicit, order, declared_cuts, draw(st.randoms())


def _grow(static, explicit, order, declared_cuts, rng):
    """Declare ``order``, asking for random views between declarations."""
    spec = RelativeAtomicitySpec(static, explicit)
    known = [tx.tx_id for tx in static]
    for transaction in order:
        spec.declare_transaction(transaction, declared_cuts[transaction.tx_id])
        known.append(transaction.tx_id)
        if len(known) > 1:
            tx_id, observer = rng.sample(known, 2)
            spec.atomicity(tx_id, observer)
    return spec


class TestLazyViews:
    @given(populations())
    @settings(max_examples=80, deadline=None)
    def test_lazy_views_equal_eager_ones(self, population):
        static, explicit, order, declared_cuts, rng = population
        spec = _grow(static, explicit, order, declared_cuts, rng)
        expected = _expected(
            static + list(order), explicit, declared_cuts
        )
        assert set(spec.pairs()) == set(expected)
        for (tx_id, observer), view in expected.items():
            assert spec.atomicity(tx_id, observer) == view
            # Repeated and interleaved calls keep giving the same view.
            assert spec.atomicity(tx_id, observer) == view

    @given(populations())
    @settings(max_examples=40, deadline=None)
    def test_views_do_not_depend_on_arrival_order(self, population):
        static, explicit, order, declared_cuts, rng = population
        first = _grow(static, explicit, order, declared_cuts, rng)
        shuffled = list(order)
        rng.shuffle(shuffled)
        second = _grow(static, explicit, shuffled, declared_cuts, rng)
        for tx_id, observer in first.pairs():
            assert first.atomicity(tx_id, observer) == second.atomicity(
                tx_id, observer
            )

    @given(populations())
    @settings(max_examples=40, deadline=None)
    def test_restricted_to_keeps_declared_cuts(self, population):
        static, explicit, order, declared_cuts, rng = population
        spec = _grow(static, explicit, order, declared_cuts, rng)
        ids = sorted(spec.transactions)
        keep = rng.sample(ids, rng.randint(1, len(ids)))
        restricted = spec.restricted_to(keep)
        assert sorted(restricted.transactions) == sorted(keep)
        for tx_id, observer in restricted.pairs():
            assert restricted.atomicity(tx_id, observer) == spec.atomicity(
                tx_id, observer
            )
        for tx_id in keep:
            assert restricted.declared_cuts(tx_id) == spec.declared_cuts(
                tx_id
            )

    def test_units_are_shared_across_observers(self):
        spec = RelativeAtomicitySpec([])
        for tx_id in (1, 2, 3):
            spec.declare_transaction(
                Transaction.from_notation(tx_id, "r[a] w[a] r[b] w[b]"),
                (2,),
            )
        seen_by_2 = spec.atomicity(1, 2)
        seen_by_3 = spec.atomicity(1, 3)
        assert seen_by_2.observer == 2 and seen_by_3.observer == 3
        assert seen_by_2.breakpoints == seen_by_3.breakpoints == {2}
        assert seen_by_2.units is seen_by_3.units

    def test_declaring_stores_no_per_pair_views(self):
        spec = RelativeAtomicitySpec([])
        for tx_id in range(1, 51):
            spec.declare_transaction(
                Transaction.from_notation(tx_id, "r[a] w[a] r[b] w[b]"),
                (2,) if tx_id % 2 else (),
            )
        for tx_id in range(1, 51):
            spec.atomicity(tx_id, 51 - tx_id if tx_id != 25 else 1)
        assert "0 explicit views" in repr(spec)


class TestDeclareErrors:
    @pytest.fixture()
    def spec(self):
        return RelativeAtomicitySpec(
            [Transaction.from_notation(1, "r[x] w[x]")]
        )

    def test_duplicate_of_construction_time_transaction(self, spec):
        with pytest.raises(InvalidSpecError):
            spec.declare_transaction(Transaction.from_notation(1, "r[y]"))

    def test_duplicate_of_declared_transaction(self, spec):
        spec.declare_transaction(Transaction.from_notation(2, "r[y] w[y]"))
        with pytest.raises(InvalidSpecError):
            spec.declare_transaction(
                Transaction.from_notation(2, "r[y] w[y]"), (1,)
            )

    @pytest.mark.parametrize("cut", [0, 3, -1])
    def test_out_of_range_cut(self, spec, cut):
        transaction = Transaction.from_notation(2, "r[y] w[y] w[z]")
        with pytest.raises(InvalidSpecError):
            spec.declare_transaction(transaction, (cut,))
        # A refused declaration leaves the spec unchanged.
        assert 2 not in spec.transactions
        spec.declare_transaction(transaction, (1, 2))
        assert spec.atomicity(2, 1).is_finest

    def test_unknown_and_self_pairs_still_raise(self, spec):
        spec.declare_transaction(Transaction.from_notation(2, "r[y] w[y]"))
        with pytest.raises(InvalidSpecError):
            spec.atomicity(2, 2)
        with pytest.raises(MissingSpecError):
            spec.atomicity(2, 3)
        with pytest.raises(MissingSpecError):
            spec.atomicity(3, 2)

    def test_relative_to_rejects_the_owner(self):
        view = Atomicity(1, 2, 3, (1,))
        assert view.relative_to(2) is view
        with pytest.raises(InvalidSpecError):
            view.relative_to(1)


def test_seeded_growth_matches_oracle_at_service_scale():
    """A few hundred rel-bank-shaped declarations, sampled pairs."""
    rng = random.Random(7)
    spec = RelativeAtomicitySpec([])
    cuts = {}
    transactions = []
    for tx_id in range(1, 301):
        if tx_id % 10 == 0:
            text, cut = " ".join(f"r[a{i}]" for i in range(8)), ()
        else:
            text, cut = "r[a] w[a] r[b] w[b]", (2,)
        transaction = Transaction.from_notation(tx_id, text)
        transactions.append(transaction)
        cuts[tx_id] = cut
        spec.declare_transaction(transaction, cut)
    for _ in range(500):
        tx_id, observer = rng.sample(range(1, 301), 2)
        length = len(transactions[tx_id - 1])
        assert spec.atomicity(tx_id, observer) == Atomicity(
            tx_id, observer, length, cuts[tx_id]
        )
