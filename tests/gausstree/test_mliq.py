"""Equivalence tests: Gauss-tree k-MLIQ versus the sequential scan.

The Gauss-tree is a filter that must never change the answer — for every
randomized database, query and k, the tree's ranking must equal the exact
scan's and the reported posteriors must agree within the requested
tolerance (Sections 5.2.1-5.2.2).
"""

import dataclasses
import math
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MLIQ, session_for
from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule, log_joint_density_multi
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.core.scan import scan_mliq
from repro.data.synthetic import clustered_pfv_dataset, uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.gausstree import (
    batch,
    gausstree_mliq,
    gausstree_mliq_many,
    gausstree_tiq_many,
    mliq,
)
from repro.gausstree.batch import BatchRefiner
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.tree import GaussTree
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import PAPER_TESTBED
from repro.storage.pagestore import PageStore

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
            _, cpu = PAPER_TESTBED.price(stats, vectorized=True)
            assert cpu > 0.0
            assert cpu == PAPER_TESTBED.modeled_cpu_seconds(
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
        tree, queries = _mixed_batch()
        batched, total = gausstree_mliq_many(tree, queries)
        assert 0 < total.swept < len(queries)
        for query, many in zip(queries, batched):
            single, _ = gausstree_mliq(tree, query)
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


def _walk_sweep(state, k):
    """The sweep as it read its pages before the hull stack kept them in
    pre-order: a depth-first walk from the last heap entry to the first,
    one ``read_many`` per inner node (the leaves before it, then the
    node), listing each inner node's children as it goes. Kept as the
    reference whose reads the pre-order slices must repeat."""
    read_many = state.tree.store.read_many
    pending = [item[3] for item in state._heap]
    run = []
    while pending:
        node = pending.pop()
        run.append(node.page_id)
        if not node.is_leaf:
            read_many(run)
            run = []
            pending.extend(node.children)
    read_many(run)
    state.objects_refined = len(state.tree)
    rows = state.refiner.stack_log_densities()[
        state.query_index : state.query_index + 1
    ]
    return mliq.sweep_matches(state.tree, rows, [k])[0]


def _recorded_reads(tree):
    """Every page id the tree's store reads through its counted path,
    in order."""
    pages = []
    store = tree.store
    read, read_many = store.read, store.read_many

    def one(page_id):
        pages.append(page_id)
        return read(page_id)

    def many(page_ids):
        pages.extend(page_ids)
        return read_many(page_ids)

    store.read, store.read_many = one, many
    return pages


class TestSweepPages:
    """A swept k-MLIQ reads the pages under its queue as slices of the
    hull stack's pre-order page ids: the pages, the order, the counters
    and the buffer's LRU order of the depth-first walk it replaces."""

    @given(
        n=st.integers(40, 200),
        d=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["memory", "disk", "writable"]),
        census=st.booleans(),
        first_check=st.integers(1, 6),
        k=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_sweeps_read_the_pages_of_the_walk(
        self, tmp_path_factory, n, d, seed, kind, census, first_check, k
    ):
        db = uniform_pfv_dataset(n=n, d=d, seed=seed)
        base = bulk_load(db.vectors, degree=4, sigma_rule=db.sigma_rule)
        assert base.height in (3, 4)
        # A buffer of half the tree's pages, so sweeps evict.
        capacity = max(2, node_pages(base) // 2)
        if kind != "memory":
            folder = tmp_path_factory.mktemp("sweep-pages")
            base.save(folder / "base.gauss")
        extra = [
            PFV(v.mu, v.sigma, key=("extra", v.key))
            for v in uniform_pfv_dataset(n=n, d=d, seed=seed + 1).vectors
        ]

        def make(name):
            buffer = BufferManager(capacity)
            if kind == "memory":
                return bulk_load(
                    db.vectors,
                    degree=4,
                    sigma_rule=db.sigma_rule,
                    page_store=PageStore(buffer),
                )
            path = folder / f"{name}.gauss"
            shutil.copy(folder / "base.gauss", path)
            tree = GaussTree.open(
                path, buffer=buffer, writable=kind == "writable"
            )
            if kind == "writable":
                pages = node_pages(tree)
                tree.insert_many(extra)
                assert node_pages(tree) > pages  # the inserts split
                leaf = next(tree.leaves())
                for v in leaf.entries[: leaf.count - tree.leaf_min + 1]:
                    assert tree.delete(v)
                assert leaf.parent is None  # its deletes condensed it
            return tree

        queries = [
            MLIQuery(make_random_query(d=d, seed=seed + 2 + i), k)
            for i in range(3)
        ]
        tolerance = 1e-9 if census else math.inf
        runs = []
        for sweep in (mliq._sweep, _walk_sweep):
            tree = make("walk" if sweep is _walk_sweep else "slices")
            pages = _recorded_reads(tree)
            calls = []
            with mock.patch.object(mliq, "_sweep", sweep), mock.patch.object(
                mliq, "_CENSUS_SHARE", 0.0 if census else math.inf
            ), mock.patch.object(
                mliq, "_FIRST_CHECK", first_check
            ), mock.patch.object(
                mliq, "_QUEUED_SHARE", 0.0
            ), mock.patch.object(mliq, "_SWEEP_SHARE", 0.0):
                # Singletons, then the three as one batch.
                for batch_queries in [[q] for q in queries] + [queries]:
                    start = len(pages)
                    answers, stats = gausstree_mliq_many(
                        tree, batch_queries, tolerance
                    )
                    counters = dataclasses.asdict(stats)
                    del counters["cpu_seconds"]
                    calls.append((
                        [
                            [
                                (m.leaf.page_id, m.row, m.log_density.hex(),
                                 m.probability.hex())
                                for m in matches
                            ]
                            for matches in answers
                        ],
                        counters,
                        pages[start:],
                    ))
            runs.append((calls, list(tree.store.buffer._resident)))
            tree.close()
        (got, got_lru), (want, want_lru) = runs
        assert got == want
        assert got_lru == want_lru
        swept = [counters["swept"] for _, counters, _ in got]
        if census or first_check == 1:
            # The census, or a checkpoint before any leaf, always sweeps.
            assert swept == [1, 1, 1, 3]
        for _, counters, read in got:
            assert counters["pages_accessed"] == len(read)


class TestCensusRefinesOneLeaf:
    def test_the_census_passes_its_best_leaf_alone_to_the_kernel(
        self, monkeypatch
    ):
        # An in-memory tree: every sibling of the best leaf is
        # materialized, so a sibling group would join the census's call.
        db = uniform_pfv_dataset(n=5000, d=8, seed=12)
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        assert tree.height == 3
        shapes = []

        def recording(mu, *args):
            shapes.append(mu.shape)
            return log_joint_density_multi(mu, *args)

        monkeypatch.setattr(batch, "log_joint_density_multi", recording)
        hulls = tree.leaf_hulls()
        for w in identification_workload(db, 4, seed=13):
            _, upper = BatchRefiner(tree, [w.q]).leaf_hull_bounds()
            best = hulls.leaves[int(np.argmax(upper[0]))]
            assert len(best.parent.children) > 1
            shapes.clear()
            _, stats = gausstree_mliq(tree, MLIQuery(w.q, 5))
            assert (stats.swept, stats.nodes_expanded) == (1, 1)
            # The sweep evaluates the leaf stack's prepared columns.
            assert shapes == [(best.count, 8)]


def _mixed_batch():
    """Tight clusters, 8-d: the leaf-hull census keeps re-observations
    ranked 1-best on their traversal and sends most broad queries asking
    for a top-6 to the sweep."""
    db = clustered_pfv_dataset(
        n=3000, d=8, cluster_std=0.02, sigma_low=0.003, sigma_high=0.01,
        seed=4,
    )
    tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
    queries = []
    for i, w in enumerate(identification_workload(db, 8, seed=5)):
        queries.append(MLIQuery(w.q, 1))
        queries.append(MLIQuery(make_random_query(d=8, seed=i), 6))
    return tree, queries


def _tight_clusters(n=3000):
    db = clustered_pfv_dataset(
        n=n, d=10, cluster_std=0.02, sigma_low=0.003, sigma_high=0.01,
        seed=14,
    )
    return db, bulk_load(db.vectors, sigma_rule=db.sigma_rule)


def _bits(matches):
    return [(m.key, m.log_density, m.probability) for m in matches]


class TestCensus:
    """A finite-tolerance k-MLIQ on a tree of three or more levels asks
    the leaf hulls, right after the root's expansion, whether its
    traversal would pop most rows; if so it sweeps at once."""

    def test_uniform_three_level_tree_sweeps_after_one_expansion(
        self, monkeypatch
    ):
        db = uniform_pfv_dataset(n=5000, d=8, seed=12)
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        assert tree.height == 3
        queries = [
            MLIQuery(w.q, 5) for w in identification_workload(db, 8, seed=13)
        ]
        got = [gausstree_mliq(tree, query) for query in queries]
        # With the census off, the pop-32 checkpoint sweeps them all.
        monkeypatch.setattr(mliq, "_CENSUS_SHARE", math.inf)
        reference = [gausstree_mliq(tree, query) for query in queries]
        for query, (matches, stats), (want, want_stats) in zip(
            queries, got, reference
        ):
            assert (stats.swept, stats.nodes_expanded) == (1, 1)
            assert (want_stats.swept, want_stats.nodes_expanded) == (
                1, mliq._FIRST_CHECK
            )
            assert stats.pages_accessed == want_stats.pages_accessed
            assert stats.pages_accessed == node_pages(tree)
            assert stats.objects_refined == len(db)
            assert _bits(matches) == _bits(want)
            expected = scan_mliq(db, query)
            assert [m.key for m in matches] == [m.key for m in expected]
            for a, b in zip(matches, expected):
                assert abs(a.probability - b.probability) <= 1e-12

    def test_tight_clusters_keep_their_traversal(self, monkeypatch):
        db, tree = _tight_clusters()
        assert tree.height == 3
        queries = [
            MLIQuery(w.q, 5) for w in identification_workload(db, 8, seed=15)
        ]
        got = []
        for query in queries:
            share = mliq.census_share(BatchRefiner(tree, [query.q]), 0, 5, 1e-9)
            assert share < mliq._CENSUS_SHARE
            matches, stats = gausstree_mliq(tree, query)
            got.append((_bits(matches), stats))
            assert stats.swept == 0
            assert 1 < stats.pages_accessed < node_pages(tree) / 2
            expected = scan_mliq(db, query)
            assert [m.key for m in matches] == [m.key for m in expected]
            for a, b in zip(matches, expected):
                assert abs(a.probability - b.probability) <= 1e-9
        # The traversal reuses the census's leaf bounds, bit for bit: with
        # the census off it pops the same pages and answers the same bits.
        monkeypatch.setattr(mliq, "_CENSUS_SHARE", math.inf)
        for query, (bits, stats) in zip(queries, got):
            matches, plain = gausstree_mliq(tree, query)
            assert _bits(matches) == bits
            assert (plain.pages_accessed, plain.nodes_expanded) == (
                stats.pages_accessed, stats.nodes_expanded
            )

    def test_rank_only_queries_never_take_the_census(self, monkeypatch):
        db = uniform_pfv_dataset(n=5000, d=8, seed=12)
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)

        def refuse(self):
            raise AssertionError("the census ran")

        monkeypatch.setattr(BatchRefiner, "leaf_hull_bounds", refuse)
        queries = [
            MLIQuery(w.q, 3) for w in identification_workload(db, 6, seed=16)
        ]
        answers, _ = gausstree_mliq_many(tree, queries, tolerance=math.inf)
        for query, matches in zip(queries, answers):
            assert [m.key for m in matches] == [
                m.key for m in scan_mliq(db, query)
            ]
        gausstree_tiq_many(tree, [ThresholdQuery(q.q, 0.2) for q in queries])
        session_for(tree, mliq_tolerance=math.inf).explain(
            [MLIQ(q.q, 3) for q in queries]
        )

    def test_a_batch_decides_as_its_singletons_do(self, monkeypatch):
        tree, queries = _mixed_batch()
        shares = []
        census_share = mliq.census_share

        def recording(refiner, query_index, k, tolerance):
            share = census_share(refiner, query_index, k, tolerance)
            shares.append((refiner.q_mu[query_index].tobytes(), k, share))
            return share

        monkeypatch.setattr(mliq, "census_share", recording)
        batched, total = gausstree_mliq_many(tree, queries)
        in_batch = list(shares)
        shares.clear()
        singles = [gausstree_mliq_many(tree, [query]) for query in queries]
        assert in_batch == shares
        assert len(shares) == len(queries)
        # Some queries sweep at once, and some traverse.
        swept = [stats.swept for _, stats in singles]
        assert 0 < sum(swept) < len(queries)
        assert total.swept == sum(swept)
        assert total.nodes_expanded == sum(
            stats.nodes_expanded for _, stats in singles
        )
        assert total.pages_accessed == sum(
            stats.pages_accessed for _, stats in singles
        )
        for many, (single, _) in zip(batched, singles):
            assert _bits(many) == _bits(single[0])


class TestRootLeaf:
    """A tree whose root is a leaf answers every k-MLIQ by one sweep of
    its one page; an empty tree answers nothing."""

    @pytest.mark.parametrize("tolerance", [1e-9, math.inf])
    def test_root_leaf_sweeps_its_one_page(self, tolerance):
        db = make_random_db(n=12, d=3, seed=30)
        tree = build_tree(db, degree=8)
        assert tree.root.is_leaf
        query = MLIQuery(make_random_query(d=3, seed=31), 4)
        matches, stats = gausstree_mliq(tree, query, tolerance=tolerance)
        assert (stats.swept, stats.nodes_expanded) == (1, 1)
        assert stats.pages_accessed == 1
        assert stats.objects_refined == len(db)
        expected = scan_mliq(db, query)
        assert [m.key for m in matches] == [m.key for m in expected]
        for a, b in zip(matches, expected):
            assert abs(a.probability - b.probability) <= 1e-12
        plan = session_for(tree).explain([MLIQ(query.q, 4)] * 3)
        assert plan.estimated_pages == 3
        assert any("sweeps the leaf stack" in note for note in plan.notes)

    def test_empty_tree_keeps_its_traversal(self):
        tree = GaussTree(dims=2, degree=3)
        answers, stats = gausstree_mliq_many(
            tree, [MLIQuery(make_random_query(d=2), 3)]
        )
        assert answers == [[]]
        assert (stats.swept, stats.pages_accessed) == (0, 0)
