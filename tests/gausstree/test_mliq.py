"""Equivalence tests: Gauss-tree k-MLIQ versus the sequential scan.

The Gauss-tree is a filter that must never change the answer — for every
randomized database, query and k, the tree's ranking must equal the exact
scan's and the reported posteriors must agree within the requested
tolerance (Sections 5.2.1-5.2.2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MLIQ, session_for
from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery
from repro.core.scan import scan_mliq
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.gausstree import gausstree_mliq, gausstree_mliq_many
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.tree import GaussTree

from tests.conftest import make_random_db, make_random_query


def build_tree(db, degree=3, bulk=True, sigma_rule=SigmaRule.CONVOLUTION):
    if bulk:
        return bulk_load(db.vectors, degree=degree, sigma_rule=sigma_rule)
    tree = GaussTree(dims=db.dims, degree=degree, sigma_rule=sigma_rule)
    tree.extend(db.vectors)
    return tree


class TestEquivalenceWithScan:
    @given(
        n=st.integers(2, 120),
        d=st.integers(1, 4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2000),
        bulk=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_ranking_and_probabilities(self, n, d, k, seed, bulk):
        db = make_random_db(n=n, d=d, seed=seed)
        q = make_random_query(d=d, seed=seed + 1)
        tree = build_tree(db, bulk=bulk)
        expected = scan_mliq(db, MLIQuery(q, k))
        got, stats = gausstree_mliq(tree, MLIQuery(q, k), tolerance=1e-9)
        assert [m.key for m in got] == [m.key for m in expected]
        for a, b in zip(got, expected):
            assert a.probability == pytest.approx(b.probability, abs=1e-6)
            assert a.log_density == pytest.approx(b.log_density, rel=1e-9)
        assert stats.pages_accessed >= 1

    def test_paper_sigma_rule_consistency(self):
        db = make_random_db(n=60, d=2, seed=9)
        # Rebuild the database under the PAPER rule so scan and tree agree.
        from repro.core.database import PFVDatabase

        db_paper = PFVDatabase(db.vectors, sigma_rule=SigmaRule.PAPER)
        q = make_random_query(d=2, seed=10)
        tree = build_tree(db_paper, sigma_rule=SigmaRule.PAPER)
        expected = scan_mliq(db_paper, MLIQuery(q, 4))
        got, _ = gausstree_mliq(tree, MLIQuery(q, 4))
        assert [m.key for m in got] == [m.key for m in expected]

    def test_k_exceeds_database(self):
        db = make_random_db(n=10, d=2, seed=3)
        tree = build_tree(db)
        q = make_random_query(d=2, seed=4)
        got, _ = gausstree_mliq(tree, MLIQuery(q, 50))
        assert len(got) == 10

    def test_empty_tree(self):
        tree = GaussTree(dims=2, degree=3)
        got, stats = gausstree_mliq(tree, MLIQuery(make_random_query(d=2), 3))
        assert got == []
        assert stats.pages_accessed == 0

    def test_far_query_does_not_break(self):
        # Every density underflows linearly; log space must still rank.
        db = make_random_db(n=50, d=3, seed=5, sigma_low=0.01, sigma_high=0.05)
        tree = build_tree(db)
        q = PFV([50.0, 50.0, 50.0], [0.01, 0.01, 0.01])
        expected = scan_mliq(db, MLIQuery(q, 3))
        got, _ = gausstree_mliq(tree, MLIQuery(q, 3))
        assert [m.key for m in got] == [m.key for m in expected]
        for m in got:
            assert math.isfinite(m.log_density)
            assert 0.0 <= m.probability <= 1.0

    def test_heteroscedastic_extremes(self):
        # Sigma spans four orders of magnitude — the regime that forces
        # the search state to rescale its sums.
        rng = np.random.default_rng(17)
        from repro.core.database import PFVDatabase

        vectors = [
            PFV(
                rng.uniform(0, 1, 3),
                np.exp(rng.uniform(np.log(1e-4), np.log(1.0), 3)),
                key=i,
            )
            for i in range(80)
        ]
        db = PFVDatabase(vectors)
        tree = build_tree(db, degree=3)
        for qseed in range(5):
            qrng = np.random.default_rng(100 + qseed)
            q = PFV(
                qrng.uniform(0, 1, 3),
                np.exp(qrng.uniform(np.log(1e-4), np.log(1.0), 3)),
            )
            expected = scan_mliq(db, MLIQuery(q, 3))
            got, _ = gausstree_mliq(tree, MLIQuery(q, 3))
            assert [m.key for m in got] == [m.key for m in expected]
            for a, b in zip(got, expected):
                assert a.probability == pytest.approx(b.probability, abs=1e-6)


class TestEfficiency:
    def test_reads_fewer_pages_than_full_traversal(self):
        # On a selective query the best-first search must prune; pure
        # ranking (tolerance=1) should touch well under half of the tree.
        db = make_random_db(n=600, d=2, seed=21, sigma_low=0.01, sigma_high=0.05)
        tree = build_tree(db, degree=4)
        total_pages = sum(1 for _ in tree.nodes())
        v = db[17]
        q = PFV(v.mu, v.sigma)  # re-observation of a stored object
        _, stats = gausstree_mliq(tree, MLIQuery(q, 1), tolerance=1.0)
        assert stats.pages_accessed < total_pages / 2

    def test_tolerance_trades_pages_for_accuracy(self):
        db = make_random_db(n=500, d=3, seed=23)
        tree = build_tree(db, degree=4)
        q = make_random_query(d=3, seed=24)
        _, loose = gausstree_mliq(tree, MLIQuery(q, 1), tolerance=0.5)
        _, tight = gausstree_mliq(tree, MLIQuery(q, 1), tolerance=1e-9)
        assert loose.pages_accessed <= tight.pages_accessed

    def test_stats_counters_populated(self):
        db = make_random_db(n=100, d=2, seed=25)
        q = make_random_query(d=2, seed=26)
        # Bulk-loaded and insertion-built leaves are both columnar, so
        # both price every refinement at the vectorized rate.
        for tree in (build_tree(db), build_tree(db, bulk=False)):
            _, stats = gausstree_mliq(tree, MLIQuery(q, 2))
            assert stats.nodes_expanded > 0
            assert stats.objects_refined > 0
            assert stats.cpu_seconds > 0.0
            assert stats.modeled_cpu_seconds > 0.0
            cost = tree.store.cost_model
            assert stats.modeled_cpu_seconds == cost.modeled_cpu_seconds(
                stats.objects_refined, stats.pages_accessed, vectorized=True
            )
            plan = session_for(tree).explain(MLIQ(q, 2))
            assert any("vectorized rate" in note for note in plan.notes)


def node_pages(tree):
    return sum(1 for _ in tree.nodes())


def ranked(matches):
    """Keys in answer order, reordered only within equal densities."""
    return sorted((-m.log_density, m.key) for m in matches)


class TestSweep:
    """A k-MLIQ whose hulls stop pruning finishes with one exact sweep of
    the tree's leaf stack (``QueryStats.swept``)."""

    @given(
        n=st.integers(2000, 3000),
        d=st.integers(6, 10),
        k=st.integers(1, 8),
        tolerance=st.sampled_from([1e-9, 0.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_swept_answers_are_the_scans(self, n, d, k, tolerance, seed):
        # Broad query sigmas over uniform data: no hull separates the
        # rows, so the traversal gives up at its first checkpoint.
        db = uniform_pfv_dataset(n=n, d=d, seed=seed)
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        query = MLIQuery(make_random_query(d=d, seed=seed + 1), k)
        got, stats = gausstree_mliq(tree, query, tolerance=tolerance)
        expected = scan_mliq(db, query)
        assert stats.swept == 1
        assert stats.pages_accessed == node_pages(tree)
        assert stats.objects_refined == n
        assert ranked(got) == ranked(expected)
        assert [m.log_density for m in got] == [
            m.log_density for m in expected
        ]
        by_key = {m.key: m.probability for m in expected}
        for m in got:
            assert abs(m.probability - by_key[m.key]) <= 1e-12

    def test_batch_answers_equal_singletons_when_some_queries_sweep(self):
        db = uniform_pfv_dataset(n=3000, d=8, seed=4)
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        # At a 1e-3 tolerance most re-observations ranked 1-best prune;
        # broad queries asking for a top-6 do not, and sweep.
        queries = []
        for i, w in enumerate(identification_workload(db, 8, seed=5)):
            queries.append(MLIQuery(w.q, 1))
            queries.append(MLIQuery(make_random_query(d=8, seed=i), 6))
        batched, total = gausstree_mliq_many(tree, queries, tolerance=1e-3)
        assert 0 < total.swept < len(queries)
        for query, many in zip(queries, batched):
            single, _ = gausstree_mliq(tree, query, tolerance=1e-3)
            assert [(m.key, m.log_density, m.probability) for m in many] == [
                (m.key, m.log_density, m.probability) for m in single
            ]

    def test_cold_disk_trees_of_either_format_answer_alike(self, tmp_path):
        db = uniform_pfv_dataset(n=2500, d=10, seed=6)
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        queries = [
            MLIQuery(make_random_query(d=10, seed=s), 5) for s in range(4)
        ]
        expected = [gausstree_mliq(tree, q)[0] for q in queries]
        for version in (2, 3):
            path = tmp_path / f"v{version}.gauss"
            tree.save(path, version=version)
            disk = GaussTree.open(path)
            try:
                for i, (query, want) in enumerate(zip(queries, expected)):
                    got, stats = gausstree_mliq(disk, query)
                    if i == 0 and version == 3:
                        # Building the stack reads the other leaves'
                        # columnar pages without materializing them.
                        materialized = sum(
                            leaf.is_materialized for leaf in disk.leaves()
                        )
                        assert materialized <= stats.nodes_expanded + 5
                    assert stats.swept == 1
                    assert stats.pages_accessed == node_pages(tree)
                    assert [
                        (m.key, m.log_density, m.probability) for m in got
                    ] == [(m.key, m.log_density, m.probability) for m in want]
            finally:
                disk.close()

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_mutations_drop_the_leaf_stack(self, tmp_path, on_disk):
        db = uniform_pfv_dataset(n=2500, d=8, seed=8)
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        if on_disk:
            tree.save(tmp_path / "w.gauss")
            tree = GaussTree.open(tmp_path / "w.gauss", writable=True)
        q = make_random_query(d=8, seed=9)
        query = MLIQuery(q, 3)
        _, stats = gausstree_mliq(tree, query)
        assert stats.swept == 1
        # A copy of the query itself is the densest possible row.
        twin = PFV(q.mu, q.sigma, key="twin")
        tree.insert_many([twin])
        got, stats = gausstree_mliq(tree, query)
        assert stats.swept == 1
        assert got[0].key == "twin"
        assert [m.key for m in got] == [
            m.key for m in scan_mliq(PFVDatabase([*db.vectors, twin]), query)
        ]
        victim = next(v for v in db.vectors if v.key == got[1].key)
        assert tree.delete(victim)
        got, stats = gausstree_mliq(tree, query)
        assert stats.swept == 1
        remaining = [v for v in db.vectors if v is not victim]
        assert [m.key for m in got] == [
            m.key
            for m in scan_mliq(PFVDatabase([*remaining, twin]), query)
        ]
        tree.close()

    def test_sweeps_are_counted_through_the_engine_and_the_wire(self):
        from repro.cluster.wire import result_to_json

        db = uniform_pfv_dataset(n=2500, d=8, seed=10)
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        specs = [MLIQ(make_random_query(d=8, seed=s), 4) for s in range(3)]
        rs = session_for(tree).execute_many(specs)
        assert rs.stats.swept == 3
        assert result_to_json(rs)["stats"]["swept"] == 3
