"""Batch query APIs must answer exactly like the one-at-a-time APIs."""

import numpy as np
import pytest

from repro.core.joint import (
    SigmaRule,
    log_joint_density_batch,
    log_joint_density_multi,
)
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.core.pfv import PFV
from repro.gausstree import (
    gausstree_mliq,
    gausstree_mliq_many,
    gausstree_tiq,
    gausstree_tiq_many,
)
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import node_log_bounds_batch, node_log_bounds_multi

from tests.conftest import make_random_db, make_random_query


@pytest.fixture(scope="module")
def db():
    return make_random_db(n=300, d=3, seed=42)


@pytest.fixture(scope="module")
def tree(db):
    return bulk_load(db.vectors, degree=4, sigma_rule=db.sigma_rule)


def queries(d, count, base_seed):
    return [make_random_query(d=d, seed=base_seed + i) for i in range(count)]


class TestMultiKernels:
    def test_density_multi_matches_batch_rows(self, db):
        qs = queries(3, 7, 900)
        q_mu = np.vstack([q.mu for q in qs])
        q_sigma = np.vstack([q.sigma for q in qs])
        for rule in SigmaRule:
            multi = log_joint_density_multi(
                db.mu_matrix, db.sigma_matrix, q_mu, q_sigma, rule
            )
            assert multi.shape == (7, len(db))
            for i, q in enumerate(qs):
                row = log_joint_density_batch(
                    db.mu_matrix, db.sigma_matrix, q, rule
                )
                np.testing.assert_allclose(multi[i], row, rtol=0, atol=1e-12)

    def test_density_multi_chunked_path(self, db):
        # Force the chunked branch: m * n * d big enough to split.
        rng = np.random.default_rng(0)
        n, d, m = 600, 7, 120  # n*d=4200 -> chunk ~59 < m
        mu = rng.uniform(0, 1, (n, d))
        sigma = rng.uniform(0.05, 0.4, (n, d))
        q_mu = rng.uniform(0, 1, (m, d))
        q_sigma = rng.uniform(0.05, 0.4, (m, d))
        multi = log_joint_density_multi(mu, sigma, q_mu, q_sigma)
        for i in (0, 59, 60, m - 1):
            row = log_joint_density_batch(
                mu, sigma, PFV(q_mu[i], q_sigma[i])
            )
            np.testing.assert_allclose(multi[i], row, rtol=0, atol=1e-12)

    def test_density_multi_validates_shapes(self, db):
        with pytest.raises(ValueError):
            log_joint_density_multi(
                db.mu_matrix, db.sigma_matrix, np.zeros((2, 5)), np.zeros((2, 5))
            )
        with pytest.raises(ValueError):
            log_joint_density_multi(
                db.mu_matrix, db.sigma_matrix, np.zeros((2, 3)), np.zeros((3, 3))
            )

    def test_bounds_multi_matches_batch_rows(self, tree):
        root = tree.root
        assert not root.is_leaf
        mu_lo, mu_hi, sg_lo, sg_hi = root.stacked_child_bounds()
        qs = queries(3, 5, 950)
        q_mu = np.vstack([q.mu for q in qs])
        q_sigma = np.vstack([q.sigma for q in qs])
        lows, highs = node_log_bounds_multi(
            mu_lo, mu_hi, sg_lo, sg_hi, q_mu, q_sigma
        )
        for i, q in enumerate(qs):
            lo, hi = node_log_bounds_batch(mu_lo, mu_hi, sg_lo, sg_hi, q)
            np.testing.assert_allclose(lows[i], lo, rtol=0, atol=1e-12)
            np.testing.assert_allclose(highs[i], hi, rtol=0, atol=1e-12)


class TestGaussTreeBatch:
    def test_mliq_many_matches_singles(self, tree):
        mliqs = [MLIQuery(q, 4) for q in queries(3, 25, 1000)]
        batch, stats = gausstree_mliq_many(tree, mliqs)
        assert len(batch) == len(mliqs)
        total_pages = 0
        for query, matches in zip(mliqs, batch):
            single, single_stats = gausstree_mliq(tree, query)
            assert [m.key for m in single] == [m.key for m in matches]
            for a, b in zip(single, matches):
                assert b.probability == pytest.approx(a.probability, abs=1e-12)
            total_pages += single_stats.pages_accessed
        # Aggregate logical accounting equals the sum of the singles.
        assert stats.pages_accessed == total_pages

    def test_tiq_many_matches_singles(self, tree):
        tiqs = [ThresholdQuery(q, 0.15) for q in queries(3, 20, 1100)]
        batch, _ = gausstree_tiq_many(tree, tiqs)
        for query, matches in zip(tiqs, batch):
            single, _ = gausstree_tiq(tree, query)
            assert [m.key for m in single] == [m.key for m in matches]
            for a, b in zip(single, matches):
                assert b.probability == pytest.approx(a.probability, abs=1e-12)

    def test_empty_batch(self, tree):
        results, stats = gausstree_mliq_many(tree, [])
        assert results == []
        assert stats.pages_accessed == 0

    def test_dimension_mismatch_rejected(self, tree):
        with pytest.raises(ValueError):
            gausstree_mliq_many(tree, [MLIQuery(make_random_query(d=2), 1)])
