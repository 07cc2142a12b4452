"""Equivalence tests: Gauss-tree TIQ versus the sequential scan.

With the default tolerance 0 the tree TIQ keeps reading pages until every
candidate is decided against the threshold with the exact denominator
interval, so its answer *set* must equal the scan's exactly (Section
5.2.3).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.core.queries import ThresholdQuery
from repro.core.scan import scan_tiq
from repro.gausstree import gausstree_tiq
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.tree import GaussTree
from repro.storage.costmodel import PAPER_TESTBED

from tests.conftest import make_random_db, make_random_query


def build_tree(db, degree=3, bulk=True):
    if bulk:
        return bulk_load(db.vectors, degree=degree, sigma_rule=db.sigma_rule)
    tree = GaussTree(dims=db.dims, degree=degree, sigma_rule=db.sigma_rule)
    tree.extend(db.vectors)
    return tree


class TestEquivalenceWithScan:
    @given(
        n=st.integers(2, 120),
        d=st.integers(1, 4),
        p_theta=st.floats(0.01, 0.95),
        seed=st.integers(0, 2000),
        bulk=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_answer_set(self, n, d, p_theta, seed, bulk):
        db = make_random_db(n=n, d=d, seed=seed)
        q = make_random_query(d=d, seed=seed + 1)
        tree = build_tree(db, bulk=bulk)
        expected = {m.key for m in scan_tiq(db, ThresholdQuery(q, p_theta))}
        got, _ = gausstree_tiq(tree, ThresholdQuery(q, p_theta))
        assert {m.key for m in got} == expected

    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 500),
        p_theta=st.floats(0.05, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_probabilities_match_scan(self, n, seed, p_theta):
        db = make_random_db(n=n, d=2, seed=seed)
        q = make_random_query(d=2, seed=seed + 3)
        tree = build_tree(db)
        expected = {
            m.key: m.probability for m in scan_tiq(db, ThresholdQuery(q, p_theta))
        }
        got, _ = gausstree_tiq(
            tree, ThresholdQuery(q, p_theta), probability_tolerance=1e-8
        )
        for m in got:
            assert m.probability == pytest.approx(expected[m.key], abs=1e-6)

    def test_threshold_zero_returns_all(self):
        db = make_random_db(n=40, d=2, seed=5)
        tree = build_tree(db)
        q = make_random_query(d=2, seed=6)
        got, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.0))
        assert len(got) == 40

    def test_results_sorted_by_probability(self):
        db = make_random_db(n=80, d=2, seed=7)
        tree = build_tree(db)
        q = make_random_query(d=2, seed=8)
        got, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.01))
        probs = [m.probability for m in got]
        assert probs == sorted(probs, reverse=True)

    def test_empty_tree(self):
        tree = GaussTree(dims=2, degree=3)
        got, stats = gausstree_tiq(
            tree, ThresholdQuery(make_random_query(d=2), 0.5)
        )
        assert got == []
        assert stats.pages_accessed == 0

    def test_far_query_returns_scan_result(self):
        db = make_random_db(n=50, d=3, seed=9, sigma_low=0.01, sigma_high=0.05)
        tree = build_tree(db)
        q = PFV([40.0, 40.0, 40.0], [0.02, 0.02, 0.02])
        expected = {m.key for m in scan_tiq(db, ThresholdQuery(q, 0.3))}
        got, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.3))
        assert {m.key for m in got} == expected

    def test_heteroscedastic_extremes(self):
        from repro.core.database import PFVDatabase

        rng = np.random.default_rng(31)
        vectors = [
            PFV(
                rng.uniform(0, 1, 2),
                np.exp(rng.uniform(np.log(1e-4), np.log(1.0), 2)),
                key=i,
            )
            for i in range(70)
        ]
        db = PFVDatabase(vectors)
        tree = build_tree(db)
        for qseed in range(5):
            qrng = np.random.default_rng(200 + qseed)
            q = PFV(
                qrng.uniform(0, 1, 2),
                np.exp(qrng.uniform(np.log(1e-4), np.log(1.0), 2)),
            )
            for p in (0.1, 0.5, 0.9):
                expected = {m.key for m in scan_tiq(db, ThresholdQuery(q, p))}
                got, _ = gausstree_tiq(tree, ThresholdQuery(q, p))
                assert {m.key for m in got} == expected


class TestEfficiencyAndTolerance:
    def test_high_threshold_cheaper_than_zero_threshold(self):
        db = make_random_db(n=400, d=2, seed=13, sigma_low=0.01, sigma_high=0.1)
        tree = build_tree(db, degree=4)
        item = db[25]
        q = PFV(item.mu, item.sigma)
        _, hi = gausstree_tiq(tree, ThresholdQuery(q, 0.9))
        _, zero = gausstree_tiq(tree, ThresholdQuery(q, 0.0))
        assert hi.pages_accessed < zero.pages_accessed

    def test_tolerance_never_loses_clear_answers(self):
        db = make_random_db(n=100, d=2, seed=15)
        tree = build_tree(db)
        q = make_random_query(d=2, seed=16)
        exact, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.2), tolerance=0.0)
        loose, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.2), tolerance=0.05)
        exact_keys = {m.key for m in exact}
        loose_keys = {m.key for m in loose}
        # Only answers within the tolerance band may differ.
        for key in exact_keys ^ loose_keys:
            match = next(
                m for m in exact + loose if m.key == key
            )
            assert abs(match.probability - 0.2) < 0.06

    @pytest.mark.parametrize(
        "seed,d,p_theta,tol",
        [(47, 1, 0.1, 0.1), (81, 2, 0.2, 0.2), (135, 1, 0.1, 0.1)],
    )
    def test_tolerance_decides_against_widest_candidate(
        self, seed, d, p_theta, tol
    ):
        """Regression: posterior interval width grows with density, so the
        early-stop test must look at the *largest* undecided candidate.

        The old rule applied the width test to ``candidates[0]`` (the
        smallest density): once that narrow interval fit inside
        ``tolerance`` the traversal stopped, while high-density candidates
        still straddled the threshold with intervals far wider than
        ``tolerance`` — and got misclassified by their (still loose)
        midpoints. These seeds made the old rule drop objects whose exact
        posterior clears ``p_theta + tol``.
        """
        from repro.core.bayes import posteriors_from_log_densities
        from repro.core.database import PFVDatabase
        from repro.core.joint import log_joint_density_batch

        rng = np.random.default_rng(seed)
        vectors = [
            PFV(
                rng.uniform(0, 1, d),
                np.exp(rng.uniform(np.log(1e-3), np.log(1.0), d)),
                key=i,
            )
            for i in range(80)
        ]
        db = PFVDatabase(vectors)
        tree = bulk_load(db.vectors, degree=3, sigma_rule=db.sigma_rule)
        qrng = np.random.default_rng(10_000 + seed)
        q = PFV(
            qrng.uniform(0, 1, d),
            np.exp(qrng.uniform(np.log(1e-3), np.log(1.0), d)),
        )
        log_dens = log_joint_density_batch(
            db.mu_matrix, db.sigma_matrix, q, db.sigma_rule
        )
        exact = posteriors_from_log_densities(log_dens)
        got, _ = gausstree_tiq(tree, ThresholdQuery(q, p_theta), tolerance=tol)
        got_keys = {m.key for m in got}
        clear_accepts = {
            db[i].key for i in range(len(db)) if exact[i] >= p_theta + tol
        }
        clear_rejects = {
            db[i].key for i in range(len(db)) if exact[i] < p_theta - tol
        }
        assert clear_accepts <= got_keys
        assert not (clear_rejects & got_keys)

    def test_stats_counters_populated(self):
        db = make_random_db(n=100, d=2, seed=17)
        q = make_random_query(d=2, seed=18)
        # Bulk-loaded and insertion-built leaves are both columnar, so
        # both price every refinement at the vectorized rate.
        for tree in (build_tree(db), build_tree(db, bulk=False)):
            _, stats = gausstree_tiq(tree, ThresholdQuery(q, 0.5))
            assert stats.nodes_expanded > 0
            assert stats.pages_accessed == stats.nodes_expanded
            _, cpu = PAPER_TESTBED.price(stats, vectorized=True)
            assert cpu > 0.0
            assert cpu == PAPER_TESTBED.modeled_cpu_seconds(
                stats.objects_refined, stats.pages_accessed, vectorized=True
            )
