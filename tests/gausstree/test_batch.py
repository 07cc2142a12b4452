"""Batch query APIs must answer exactly like the one-at-a-time APIs."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import joint
from repro.core.joint import (
    SigmaRule,
    log_joint_density_batch,
    log_joint_density_multi,
)
from repro import MLIQ, session_for
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.core.pfv import PFV
from repro.core.scan import scan_mliq
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.eval.figures import dataset1
from repro.gausstree import (
    BatchRefiner,
    batch,
    mliq,
    gausstree_mliq,
    gausstree_mliq_many,
    gausstree_tiq,
    gausstree_tiq_many,
)
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import node_log_bounds_batch, node_log_bounds_multi
from repro.gausstree.node import InnerNode, LeafNode
from repro.gausstree.search import _CAP, _UNDERFLOW
from repro.gausstree.tree import GaussTree

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
                assert np.array_equal(multi[i], row)

    def test_density_multi_chunked_path(self, db):
        # m * n * d = 504,000 elements: the kernel cuts the call into row
        # chunks of 39 rows, while each batch call (4,200) is one chunk.
        rng = np.random.default_rng(0)
        n, d, m = 600, 7, 120
        mu = rng.uniform(0, 1, (n, d))
        sigma = rng.uniform(0.05, 0.4, (n, d))
        q_mu = rng.uniform(0, 1, (m, d))
        q_sigma = rng.uniform(0.05, 0.4, (m, d))
        multi = log_joint_density_multi(mu, sigma, q_mu, q_sigma)
        for i in (0, 59, 60, m - 1):
            row = log_joint_density_batch(
                mu, sigma, PFV(q_mu[i], q_sigma[i])
            )
            assert np.array_equal(multi[i], row)

    @pytest.mark.parametrize("prepared", [False, True])
    @pytest.mark.parametrize("budget", [1, 40, 700, 1000])
    @pytest.mark.parametrize("rule", list(SigmaRule))
    def test_density_multi_equal_across_chunk_borders(
        self, budget, rule, prepared, monkeypatch
    ):
        # A chunk holds the rows a one-query call gets (budget // d, at
        # least one, at most all 50) and a block the queries that fit
        # beside them (at least one): a budget of 1 element cuts chunks
        # of 1 row, 40 chunks of 4 rows, each in blocks of 1 query; 700
        # keeps the 50 rows in one chunk in blocks of 1 query, 1000 in
        # blocks of 2 and 1. The prepared form (a leaf directory's or the
        # scan's) slices its columns at the same borders.
        rng = np.random.default_rng(budget)
        m, n, d = 3, 50, 10
        mu, sigma = rng.uniform(0, 1, (n, d)), rng.uniform(0.05, 0.4, (n, d))
        q_mu, q_sigma = rng.uniform(0, 1, (m, d)), rng.uniform(0.05, 0.4, (m, d))
        whole = log_joint_density_multi(mu, sigma, q_mu, q_sigma, rule)
        monkeypatch.setattr(joint, "_CHUNK_ELEMENTS", budget)
        if prepared:
            columns = joint.PreparedColumns.stack([(mu, sigma)], n, d, rule)
            got = columns.log_densities(q_mu, q_sigma)
        else:
            got = log_joint_density_multi(mu, sigma, q_mu, q_sigma, rule)
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("d", [4, 10, 27])
    @pytest.mark.parametrize("rule", list(SigmaRule))
    def test_single_output_calls_match_wider_calls(self, d, rule):
        # One row and one query is where a reduction over d would switch
        # to pairwise summation; the kernels sum the same way at every
        # shape.
        rng = np.random.default_rng(d)
        m, n = 3, 5
        mu = rng.uniform(0, 1, (n, d))
        sigma = rng.uniform(0.05, 0.4, (n, d))
        q_mu = rng.uniform(0, 1, (m, d))
        q_sigma = rng.uniform(0.05, 0.4, (m, d))
        mu_lo = mu - rng.uniform(0, 0.2, (n, d))
        sg_lo = sigma * rng.uniform(0.5, 1, (n, d))
        dens = log_joint_density_multi(mu, sigma, q_mu, q_sigma, rule)
        lows, highs = node_log_bounds_multi(
            mu_lo, mu, sg_lo, sigma, q_mu, q_sigma, rule
        )
        for i in range(m):
            for j in range(n):
                row, q = slice(j, j + 1), slice(i, i + 1)
                one = log_joint_density_multi(
                    mu[row], sigma[row], q_mu[q], q_sigma[q], rule
                )
                lo, hi = node_log_bounds_multi(
                    mu_lo[row], mu[row], sg_lo[row], sigma[row],
                    q_mu[q], q_sigma[q], rule,
                )
                assert one.shape == lo.shape == (1, 1)
                assert one[0, 0] == dens[i, j]
                assert (lo[0, 0], hi[0, 0]) == (lows[i, j], highs[i, j])

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
            assert np.array_equal(lows[i], lo)
            assert np.array_equal(highs[i], hi)


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


class TestSweepFinish:
    """A two-level tree's batch, which sweeps every query by the tree's
    shape, finishes every query in one array pass over its ``(m, n)``
    density matrix (``mliq.finish_sweeps``)."""

    def test_batch_finish_equals_one_query_batches(self):
        db = make_random_db(n=300, d=4, seed=21)
        # Four equal rows, sharper than any other: the densest four for
        # a query at their mean, tied.
        twin = PFV(db.vectors[7].mu, np.full(4, 0.01))
        for copy in range(4):
            db.add(PFV(twin.mu, twin.sigma, key=f"twin-{copy}"))
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        assert tree.height == 2
        n = len(tree)
        # Every density of this query overflows z**2 to inf: -inf.
        far = PFV(np.full(4, 1e160), np.full(4, 0.1))
        batch = [
            MLIQuery(twin, 2),  # the k-th density ties with 3 others
            MLIQuery(make_random_query(d=4, seed=22), 5),
            MLIQuery(far, 3),
            MLIQuery(twin, n),
            MLIQuery(make_random_query(d=4, seed=23), n + 3),
            MLIQuery(far, n),
            MLIQuery(make_random_query(d=4, seed=24), 1),
        ]

        def answer(queries):
            results, stats = gausstree_mliq_many(tree, queries)
            counters = dataclasses.asdict(stats)
            del counters["cpu_seconds"]
            return [
                [
                    (m.leaf.page_id, m.row, m.log_density.hex(),
                     m.probability.hex())
                    for m in matches
                ]
                for matches in results
            ], counters

        # Both runs start cold, so only their first query faults.
        with np.errstate(over="ignore"):
            tree.store.cold_start()
            got, counters = answer(batch)
            tree.store.cold_start()
            singles = [answer([query]) for query in batch]
        assert got == [matches for (matches,), _ in singles]
        assert counters == {
            key: sum(single[key] for _, single in singles) for key in counters
        }
        assert counters["swept"] == len(batch)
        assert len({entry[2] for entry in got[3][:4]}) == 1
        assert got[3][4][2] != got[3][3][2]
        assert got[0] == got[3][:2]
        assert [len(matches) for matches in got] == [2, 5, 3, n, n, n, 1]
        for matches in (got[2], got[5]):
            assert {(m[2], m[3]) for m in matches} == {
                ((-math.inf).hex(), (1.0 / n).hex())
            }
        assert [m[:2] for m in got[5][:3]] == [m[:2] for m in got[2]]

    def test_one_kernel_call_over_the_sweeping_queries(self, monkeypatch):
        # Data set 1's 1-MLIQs on a three-level tree: the census sweeps
        # some and keeps the others on their traversal, and with the
        # first checkpoint at pop 4 some of those sweep there.
        db = dataset1(scale=0.1)
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        assert tree.height == 3
        monkeypatch.setattr(mliq, "_FIRST_CHECK", 4)
        queries = [
            MLIQuery(w.q, 1) for w in identification_workload(db, 24, seed=1)
        ]
        kernel_rows = []
        log_densities = joint.PreparedColumns.log_densities

        def recording_kernel(columns, q_mu, q_sigma):
            kernel_rows.append(q_mu.copy())
            return log_densities(columns, q_mu, q_sigma)

        per_query = []
        search_mliq = batch.search_mliq

        def recording_search(state, query, tolerance):
            matches, stats = search_mliq(state, query, tolerance)
            per_query.append(stats)
            return matches, stats

        monkeypatch.setattr(
            joint.PreparedColumns, "log_densities", recording_kernel
        )
        monkeypatch.setattr(batch, "search_mliq", recording_search)

        def fingerprint(matches, stats):
            counters = dataclasses.asdict(stats)
            del counters["cpu_seconds"]
            return [
                (m.leaf.page_id, m.row, m.log_density.hex(),
                 m.probability.hex())
                for m in matches
            ], counters

        # Both runs start cold and read in the same order, so each query
        # faults the same pages in the batch as alone.
        tree.store.cold_start()
        answers, total = gausstree_mliq_many(tree, queries)
        got = [
            fingerprint(matches, stats)
            for matches, stats in zip(answers, per_query)
        ]
        kinds = {
            (stats.swept, stats.nodes_expanded > 1) for stats in per_query
        }
        # Census sweeps, checkpoint sweeps and traversals all take part.
        assert kinds == {(1, False), (1, True), (0, True)}
        swept = [i for i, stats in enumerate(per_query) if stats.swept]
        assert len(kernel_rows) == 1
        assert np.array_equal(
            kernel_rows[0], np.vstack([queries[i].q.mu for i in swept])
        )
        assert total.swept == len(swept)
        tree.store.cold_start()
        for query, want in zip(queries, got):
            (matches,), stats = gausstree_mliq_many(tree, [query])
            assert fingerprint(matches, stats) == want


class TestOneQueryPerTraversal:
    """A batch's queries share the buffer, the leaf directory and the
    sweep finish, and no numeric work: each query's traversal and census
    evaluate what that query pops, for that query alone."""

    @pytest.fixture(scope="class")
    def ds1_memory(self):
        # Data set 1 in memory, rank-only 1-MLIQ: every query traverses.
        db = dataset1()
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        queries = [
            MLIQuery(w.q, 1) for w in identification_workload(db, 16, seed=5)
        ]
        return tree, queries, math.inf

    @pytest.fixture(scope="class")
    def identify_disk(self, tmp_path_factory):
        # identify-disk's shape: a 20,000 x 10-d disk tree, MLIQ(q, 5) at
        # 1e-9; every query sweeps from the census.
        db = uniform_pfv_dataset(n=20_000, d=10, seed=4242)
        path = tmp_path_factory.mktemp("identify") / "disk.gauss"
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        tree = GaussTree.open(path)
        queries = [
            MLIQuery(w.q, 5) for w in identification_workload(db, 16, seed=6)
        ]
        yield tree, queries, 1e-9
        tree.close()

    @pytest.mark.parametrize("shape", ["ds1_memory", "identify_disk"])
    def test_a_batch_evaluates_only_what_its_own_queries_pop(
        self, shape, request, monkeypatch
    ):
        tree, queries, tolerance = request.getfixturevalue(shape)
        calls = []

        def recording(name, kernel):
            def wrapper(first, *args):
                q_mu = args[-3]
                calls.append((name, q_mu.shape[0], q_mu.tobytes(),
                              first.shape, hash(first.tobytes())))
                return kernel(first, *args)

            return wrapper

        per_query = []
        search_mliq = batch.search_mliq

        def recording_search(state, query, tolerance):
            matches, stats = search_mliq(state, query, tolerance)
            counters = dataclasses.asdict(stats)
            del counters["cpu_seconds"]
            per_query.append(counters)
            return matches, stats

        monkeypatch.setattr(
            batch, "log_joint_density_multi",
            recording("leaf", log_joint_density_multi),
        )
        monkeypatch.setattr(
            batch, "node_log_bounds_multi",
            recording("inner", node_log_bounds_multi),
        )
        monkeypatch.setattr(batch, "search_mliq", recording_search)

        def answer(chunk):
            results, _ = gausstree_mliq_many(tree, chunk, tolerance)
            return [
                [(m.key, m.log_density.hex(), m.probability.hex())
                 for m in matches]
                for matches in results
            ]

        # Both runs start cold and read in the same order, so each query
        # faults the same pages in the batch as alone.
        tree.store.cold_start()
        got = answer(queries)
        in_batch, batch_stats = list(calls), list(per_query)
        calls.clear()
        per_query.clear()
        tree.store.cold_start()
        singles = [answer([query])[0] for query in queries]
        assert in_batch
        assert all(rows == 1 for _, rows, *_ in in_batch)
        # The same (row, query) pairs, kernel call for kernel call.
        assert sorted(in_batch) == sorted(calls)
        assert got == singles
        assert batch_stats == per_query
        swept = [stats["swept"] for stats in per_query]
        assert swept == [int(shape == "identify_disk")] * len(queries)


# -- sibling groups -------------------------------------------------------------


def _walk(node, leaves, inners):
    """Collect every node, materializing disk stubs on the way."""
    if node.is_leaf:
        node.arrays()
        leaves.append(node)
        return
    inners.append(node)
    for child in node.children:
        _walk(child, leaves, inners)


def _sparse_tree(db, rule):
    """A hand-built tree of 1-row leaves and 1-child inner nodes beside
    ordinary siblings: under a singleton query such a node alone is a
    one-element kernel output, the shape where a reduction over ``d``
    switches to pairwise summation."""
    tree = GaussTree(dims=db.dims, sigma_rule=rule)
    rows = iter(range(len(db)))

    def leaf(size):
        node = LeafNode(tree.store.allocate())
        keys = [next(rows) for _ in range(size)]
        node.set_columns(db.mu_matrix[keys], db.sigma_matrix[keys], keys)
        return node

    def inner(*children):
        node = InnerNode(tree.store.allocate())
        for child in children:
            node.add_child(child)
        return node

    tree.root = inner(
        inner(leaf(1)),
        inner(leaf(1)),
        inner(inner(leaf(1))),
        inner(leaf(5)),
        inner(*(leaf(1) for _ in range(6)), leaf(7), leaf(7)),
    )
    return tree


@pytest.fixture(scope="module")
def group_tree(tmp_path_factory):
    """One small, fully materialized tree per (kind, d, rule), built on
    first use."""
    trees = {}

    def get(kind, d, rule):
        if (kind, d, rule) not in trees:
            db = uniform_pfv_dataset(n=900, d=d, seed=d, sigma_rule=rule)
            if kind == "sparse":
                tree = _sparse_tree(db, rule)
            elif kind == "insertion":
                tree = GaussTree(dims=d, sigma_rule=rule)
                tree.extend(db.vectors)
            else:
                tree = bulk_load(db.vectors, sigma_rule=rule)
            if kind in ("v2", "v3"):
                path = tmp_path_factory.mktemp("groups") / f"{kind}-{d}.gauss"
                tree.save(path, version=int(kind[1]))
                tree = GaussTree.open(path)
            leaves, inners = [], []
            _walk(tree.root, leaves, inners)
            trees[kind, d, rule] = (db, tree, leaves, inners)
        return trees[kind, d, rule]

    return get


class TestSiblingGroups:
    @pytest.mark.parametrize("kind", ["bulk", "insertion", "v2", "v3", "sparse"])
    @pytest.mark.parametrize("d", [4, 10, 27])
    @pytest.mark.parametrize("m", [1, 16])
    @pytest.mark.parametrize("rule", list(SigmaRule))
    @pytest.mark.parametrize("census", [False, True])
    def test_group_kernels_match_per_node_kernels_bit_for_bit(
        self, kind, d, m, rule, census, group_tree, monkeypatch
    ):
        db, tree, leaves, inners = group_tree(kind, d, rule)
        qs = [w.q for w in identification_workload(db, m, seed=m)]
        q_mu = np.vstack([q.mu for q in qs])
        q_sigma = np.vstack([q.sigma for q in qs])
        per_leaf = {
            leaf.page_id: log_joint_density_multi(
                *leaf.arrays(), q_mu, q_sigma, rule
            )
            for leaf in leaves
        }
        # Anchor each query at its best density, so masses are O(1).
        shifts = np.max(np.hstack(list(per_leaf.values())), axis=1)
        spans = tree.leaf_directory().spans

        calls = {"leaf": 0, "inner": 0}

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)

            return wrapper

        def group(node, evaluated):
            """What the refiner evaluates for ``node``: the node, then its
            materialized siblings not yet evaluated, in child order."""
            if node.parent is None:
                return [node.page_id]
            return [node.page_id] + [
                sibling.page_id
                for sibling in node.parent.children
                if sibling is not node
                and sibling.page_id not in evaluated
                and sibling.is_materialized
            ]

        monkeypatch.setattr(
            batch, "log_joint_density_multi",
            counted("leaf", log_joint_density_multi),
        )
        monkeypatch.setattr(
            batch, "node_log_bounds_multi",
            counted("inner", node_log_bounds_multi),
        )
        # One refiner per query, each requesting pages in its own
        # shuffled order, so groups start anywhere in their parent's
        # child list.
        rng = np.random.default_rng(d * m)
        for i, (q, shift) in enumerate(zip(qs, shifts.tolist())):
            calls.update(leaf=0, inner=0)
            refiner = BatchRefiner(tree, q)
            refiner.shift = shift
            if census:
                # Every leaf parent's child bounds then come from the
                # census's bounds over the leaf directory's rectangles.
                refiner.leaf_hull_bounds()
            cache = refiner._leaf_extras
            for index in rng.permutation(len(leaves)).tolist():
                leaf = leaves[index]
                before = list(cache)
                rows, maximum, mass = refiner.leaf_extras(leaf)
                if leaf.page_id not in before:
                    assert list(cache)[len(before):] == group(leaf, before)
                matrix = per_leaf[leaf.page_id]
                scaled = np.exp(
                    np.clip(matrix - shifts[:, None], _UNDERFLOW, _CAP)
                )
                assert np.array_equal(rows, matrix[i])
                assert maximum == matrix.max(axis=1).tolist()[i]
                assert mass == scaled.sum(axis=1).tolist()[i]
                # The mass a state recomputes at the refiner's shift.
                assert mass == float(
                    np.sum(np.exp(np.clip(rows - refiner.shift, _UNDERFLOW, _CAP)))
                )
                assert np.array_equal(refiner.leaf_log_densities(leaf), matrix[i])
            cache = refiner._bounds_cache
            for index in rng.permutation(len(inners)).tolist():
                inner = inners[index]
                before = list(cache)
                lower, upper = refiner.child_log_bounds(inner)
                if inner.page_id not in before:
                    want = (
                        [inner.page_id]
                        if census and inner.page_id in spans
                        else group(inner, before)
                    )
                    assert list(cache)[len(before):] == want
                exp_lower, exp_upper = node_log_bounds_multi(
                    *inner.stacked_child_bounds(), q_mu, q_sigma, rule
                )
                assert np.array_equal(lower, exp_lower[i])
                assert np.array_equal(upper, exp_upper[i])
            # The pages really were refined in groups.
            assert calls["leaf"] < len(leaves)
            if any(
                sum(not child.is_leaf for child in inner.children) > 1
                for inner in inners
            ):
                assert calls["inner"] < len(inners)

    def test_cold_query_materializes_only_the_pages_it_pops(self, tmp_path):
        # Data set 1 prunes well, so some leaves stay unpopped next to
        # popped siblings; loading every sibling would materialize them.
        db = dataset1(scale=0.05)
        path = tmp_path / "cold.gauss"
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        tree = GaussTree.open(path)
        read = tree.store.read
        popped = set()

        def recording_read(page_id):
            popped.add(page_id)
            return read(page_id)

        tree.store.read = recording_read
        q = identification_workload(db, 1, seed=3)[0].q
        # Rank-only, as in Figure 7: at a finite tolerance the leaf-hull
        # census sends this query to the sweep, which pops nothing.
        session_for(tree, mliq_tolerance=math.inf).execute(MLIQ(q, 5))

        materialized, stubs = [], []

        def visit(node):  # walks loaded nodes only: never materializes
            if node.is_leaf:
                (materialized if node.is_materialized else stubs).append(node)
            elif node.is_materialized:
                for child in node.children:
                    visit(child)

        visit(tree.root)
        assert materialized and stubs
        assert {leaf.page_id for leaf in materialized} <= popped
        # Some unpopped leaf has a popped sibling, so the check can fail.
        assert any(
            any(s.page_id in popped for s in leaf.parent.children)
            for leaf in stubs
        )


class TestDrainedQueue:
    def test_exact_posteriors_once_the_queue_drains(self):
        # tolerance=0.0 pops until the remaining mass is exactly 0; the
        # reported posteriors must then equal the scan's, not carry the
        # incremental sums' drift allowance.
        db = uniform_pfv_dataset(n=2000, d=6, seed=3)
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        mliqs = [MLIQuery(w.q, 5) for w in identification_workload(db, 30)]
        batched, _ = gausstree_mliq_many(tree, mliqs, tolerance=0.0)
        for query, many in zip(mliqs, batched):
            expected = scan_mliq(db, query)
            single, _ = gausstree_mliq(tree, query, tolerance=0.0)
            for got in (single, many):
                assert [m.key for m in got] == [m.key for m in expected]
                for a, b in zip(got, expected):
                    assert abs(a.probability - b.probability) <= 1e-12
