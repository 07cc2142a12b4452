"""Unit tests of the shared search state (denominator bounds, rescaling)."""

import math

import numpy as np
import pytest

from repro.core.joint import log_joint_density
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery
from repro.data.workload import identification_workload
from repro.eval.figures import dataset1
from repro.gausstree import gausstree_mliq
from repro.gausstree.batch import BatchRefiner
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.search import SearchState
from repro.gausstree.tree import GaussTree

from tests.conftest import make_random_db, make_random_query


def state_for(tree, q):
    """A singleton query's state: a refiner over the batch ``[q]``."""
    return SearchState(tree, q, BatchRefiner(tree, [q]), 0)


def drain(state):
    while state.has_active_nodes:
        state.pop_and_expand()


class TestDenominatorBounds:
    def test_bounds_bracket_true_denominator_at_every_step(self):
        db = make_random_db(n=100, d=2, seed=1)
        tree = bulk_load(db.vectors, degree=3)
        q = make_random_query(d=2, seed=2)
        true_total = sum(
            math.exp(log_joint_density(v, q, tree.sigma_rule) - 0.0)
            for v in db
        )
        state = state_for(tree, q)
        while state.has_active_nodes:
            lo = state.denominator_low * math.exp(state.shift)
            hi = state.denominator_high
            hi = hi if math.isinf(hi) else hi * math.exp(state.shift)
            assert lo <= true_total * (1 + 1e-9)
            assert hi >= true_total * (1 - 1e-9)
            state.pop_and_expand()
        # Drained: the interval collapses onto the exact denominator.
        final = state.exact_sum * math.exp(state.shift)
        assert final == pytest.approx(true_total, rel=1e-9)
        assert state.denominator_low == pytest.approx(state.denominator_high)

    def test_interval_monotonically_tightens(self):
        db = make_random_db(n=150, d=2, seed=3)
        tree = bulk_load(db.vectors, degree=3)
        q = make_random_query(d=2, seed=4)
        state = state_for(tree, q)
        prev_lo, prev_hi = state.denominator_low, state.denominator_high
        prev_shift = state.shift
        while state.has_active_nodes:
            state.pop_and_expand()
            if state.shift != prev_shift:
                # A rescale changes the unit; restart the comparison.
                prev_lo, prev_hi = state.denominator_low, state.denominator_high
                prev_shift = state.shift
                continue
            assert state.denominator_low >= prev_lo - 1e-12
            if not math.isinf(prev_hi):
                assert state.denominator_high <= prev_hi + 1e-9
            prev_lo, prev_hi = state.denominator_low, state.denominator_high

    def test_counts_match_tree(self):
        db = make_random_db(n=80, d=2, seed=5)
        tree = bulk_load(db.vectors, degree=3)
        q = make_random_query(d=2, seed=6)
        state = state_for(tree, q)
        drain(state)
        assert state.objects_refined == 80
        assert state.nodes_expanded == sum(1 for _ in tree.nodes())

    def test_pop_order_non_increasing_upper(self):
        db = make_random_db(n=120, d=2, seed=7)
        tree = bulk_load(db.vectors, degree=3)
        q = make_random_query(d=2, seed=8)
        state = state_for(tree, q)
        prev = math.inf
        while state.has_active_nodes:
            top = state.top_log_upper
            assert top <= prev + 1e-9
            prev = top
            state.pop_and_expand()


class TestBoundReadings:
    """Reading the denominator bounds changes nothing; the traversals
    tighten them through ``settle_bounds`` at their own decision points.
    Data set 1's loose root hulls start the upper sum orders of magnitude
    above the denominator, which is where a stale allowance hurt."""

    @pytest.fixture(scope="class")
    def ds1_tree(self):
        db = dataset1(scale=0.05)
        return db, bulk_load(db.vectors, sigma_rule=db.sigma_rule)

    def test_reading_the_bounds_at_every_pop_adds_no_pages(
        self, ds1_tree, monkeypatch
    ):
        db, tree = ds1_tree
        queries = [
            MLIQuery(w.q, k)
            for k in (1, 5)
            for w in identification_workload(db, 20, seed=5)
        ]
        plain = [gausstree_mliq(tree, query) for query in queries]
        pop = SearchState.pop_and_expand

        def reading_pop(self):
            self.denominator_low, self.denominator_high, self.denominator_mid
            return pop(self)

        monkeypatch.setattr(SearchState, "pop_and_expand", reading_pop)
        for query, (want, base) in zip(queries, plain):
            got, stats = gausstree_mliq(tree, query)
            assert stats.pages_accessed == base.pages_accessed
            assert [(m.key, m.probability) for m in got] == [
                (m.key, m.probability) for m in want
            ]

    def test_settled_allowances_are_small_next_to_their_sums(self, ds1_tree):
        db, tree = ds1_tree
        for w in identification_workload(db, 10, seed=6):
            state = state_for(tree, w.q)
            while state.has_active_nodes:
                state.settle_bounds()
                for bound in (state._min_rem, state._max_rem):
                    assert bound.drift <= 1e-6 * bound.finite
                state.pop_and_expand()


class TestRescaling:
    def test_far_query_triggers_rescale_without_degenerate_sums(self):
        # Tiny sigmas + a remote query: the root hull sits hundreds of
        # nats above every true density, which must force a rescale
        # instead of collapsing exact_sum to zero.
        db = make_random_db(n=100, d=3, seed=9, sigma_low=0.001, sigma_high=0.01)
        tree = bulk_load(db.vectors, degree=3)
        q = PFV([30.0, 30.0, 30.0], [0.001, 0.001, 0.001])
        state = state_for(tree, q)
        initial_shift = state.shift
        drain(state)
        assert state.shift != initial_shift  # rescale happened
        assert state.exact_sum > 0.0

    def test_empty_tree_state(self):
        tree = GaussTree(dims=2, degree=3)
        q = make_random_query(d=2)
        state = state_for(tree, q)
        assert not state.has_active_nodes
        assert state.top_log_upper == -math.inf

    def test_dimension_mismatch(self):
        tree = GaussTree(dims=2, degree=3)
        refiner = BatchRefiner(tree, [make_random_query(d=2)])
        with pytest.raises(ValueError):
            SearchState(tree, PFV([0.0], [1.0]), refiner, 0)

    def test_scaled_density_underflow_guard(self):
        db = make_random_db(n=20, d=2, seed=10)
        tree = bulk_load(db.vectors, degree=3)
        q = make_random_query(d=2, seed=11)
        state = state_for(tree, q)
        assert state.scaled_density(state.shift - 1e6) == 0.0
        assert state.scaled_density(state.shift) == pytest.approx(1.0)
