"""Tests of the sequential-scan reference algorithms (Section 4).

These algorithms are the correctness oracle for everything else, so they
are themselves validated against a hand-rolled brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bayes import identification_posteriors
from repro.core.database import PFVDatabase
from repro.core.joint import log_joint_density
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.core.scan import scan_mliq, scan_posteriors, scan_tiq, top_k_order

from tests.conftest import make_random_db, make_random_query


def brute_force_ranking(db, q):
    scored = [
        (log_joint_density(v, q, db.sigma_rule), i) for i, v in enumerate(db)
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in scored]


class TestMLIQ:
    def test_matches_brute_force(self, small_db, query_pfv):
        ranking = brute_force_ranking(small_db, query_pfv)
        matches = scan_mliq(small_db, MLIQuery(query_pfv, 5))
        assert [m.vector.key for m in matches] == [
            small_db[i].key for i in ranking[:5]
        ]

    def test_probabilities_are_posteriors(self, small_db, query_pfv):
        post = identification_posteriors(small_db, query_pfv)
        matches = scan_mliq(small_db, MLIQuery(query_pfv, 3))
        for m in matches:
            idx = small_db.keys().index(m.key)
            assert m.probability == pytest.approx(float(post[idx]))

    def test_k_larger_than_database(self, small_db, query_pfv):
        matches = scan_mliq(small_db, MLIQuery(query_pfv, len(small_db) + 10))
        assert len(matches) == len(small_db)

    def test_ordered_by_descending_probability(self, small_db, query_pfv):
        matches = scan_mliq(small_db, MLIQuery(query_pfv, 10))
        probs = [m.probability for m in matches]
        assert probs == sorted(probs, reverse=True)

    def test_empty_database(self, query_pfv):
        assert scan_mliq(PFVDatabase(), MLIQuery(query_pfv, 3)) == []

    @given(
        n=st.integers(1, 50),
        k=st.integers(1, 60),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_result_size(self, n, k, seed):
        db = make_random_db(n=n, d=2, seed=seed)
        q = make_random_query(d=2, seed=seed + 1)
        assert len(scan_mliq(db, MLIQuery(q, k))) == min(n, k)


class TestTIQ:
    def test_matches_posterior_filter(self, small_db, query_pfv):
        post = identification_posteriors(small_db, query_pfv)
        expected = {
            small_db[i].key for i in range(len(small_db)) if post[i] >= 0.05
        }
        matches = scan_tiq(small_db, ThresholdQuery(query_pfv, 0.05))
        assert {m.key for m in matches} == expected

    def test_threshold_zero_returns_everything(self, small_db, query_pfv):
        matches = scan_tiq(small_db, ThresholdQuery(query_pfv, 0.0))
        assert len(matches) == len(small_db)

    def test_threshold_one_rarely_matches(self, small_db, query_pfv):
        matches = scan_tiq(small_db, ThresholdQuery(query_pfv, 1.0))
        assert len(matches) <= 1

    def test_single_object_database_has_posterior_one(self):
        from repro.core.pfv import PFV

        db = PFVDatabase([PFV([0.0], [1.0], key=0)])
        q = make_random_query(d=1, seed=3)
        matches = scan_tiq(db, ThresholdQuery(q, 1.0))
        assert len(matches) == 1
        assert matches[0].probability == pytest.approx(1.0)

    def test_empty_database(self, query_pfv):
        assert scan_tiq(PFVDatabase(), ThresholdQuery(query_pfv, 0.5)) == []

    @given(seed=st.integers(0, 500), p=st.floats(0.01, 0.99))
    @settings(max_examples=25, deadline=None)
    def test_every_returned_probability_reaches_threshold(self, seed, p):
        db = make_random_db(n=30, d=2, seed=seed)
        q = make_random_query(d=2, seed=seed + 7)
        for m in scan_tiq(db, ThresholdQuery(q, p)):
            assert m.probability >= p


class TestScanPosteriors:
    def test_insertion_order(self, small_db, query_pfv):
        log_dens, post = scan_posteriors(small_db, query_pfv)
        assert log_dens.shape == post.shape == (len(small_db),)
        assert np.argmax(log_dens) == np.argmax(post)


class TestTopKOrder:
    @given(
        values=st.lists(
            st.sampled_from([-np.inf, -750.0, -3.5, -1.0, -1.0, 0.0, 2.25]),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(1, 70),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_lexsort_on_duplicated_densities(self, values, k):
        # Few distinct values, so most rows tie and many ties straddle
        # the k-th position.
        log_dens = np.array(values)
        full = np.lexsort((np.arange(log_dens.size), -log_dens))[:k]
        assert top_k_order(log_dens, k).tolist() == full.tolist()

    def test_keeps_every_row_tied_with_the_kth_for_the_position_order(self):
        log_dens = np.array([1.0, 5.0, 3.0, 5.0, 3.0, 3.0, 0.0])
        assert top_k_order(log_dens, 3).tolist() == [1, 3, 2]
        assert top_k_order(log_dens, 4).tolist() == [1, 3, 2, 4]
