"""Structural tests of the Gauss-tree: insertion, splits, deletion.

Every mutation sequence must leave the tree satisfying all Definition-4
invariants (checked by ``GaussTree.check_invariants``), keep exactly the
inserted multiset of pfv, and stay queryable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.gausstree import gausstree_mliq, gausstree_tiq
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.tree import GaussTree
from repro.storage.layout import PageLayout


def random_vectors(n, d, seed):
    rng = np.random.default_rng(seed)
    return [
        PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.5, d), key=i)
        for i in range(n)
    ]


class TestConstruction:
    def test_empty_tree(self):
        tree = GaussTree(dims=2, degree=3)
        assert len(tree) == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_degree_from_layout(self):
        layout = PageLayout(dims=4, page_size=2048)
        tree = GaussTree(dims=4, layout=layout)
        assert tree.degree == min(layout.leaf_capacity // 2, layout.inner_capacity)

    def test_layout_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussTree(dims=2, layout=PageLayout(dims=3))

    def test_degree_lower_bound(self):
        with pytest.raises(ValueError):
            GaussTree(dims=2, degree=1)

    def test_capacities(self):
        tree = GaussTree(dims=2, degree=5)
        assert tree.leaf_min == 5
        assert tree.leaf_max == 10
        assert tree.inner_min == 3
        assert tree.inner_max == 5


class TestInsertion:
    def test_insert_dimension_check(self):
        tree = GaussTree(dims=2, degree=3)
        with pytest.raises(ValueError):
            tree.insert(PFV([0.0], [1.0]))

    def test_root_leaf_grows_then_splits(self):
        tree = GaussTree(dims=1, degree=2)
        vectors = random_vectors(4, 1, 0)
        for v in vectors:
            tree.insert(v)
        assert tree.height == 1  # 4 <= 2M stays a root leaf
        tree.insert(PFV([0.5], [0.2], key=99))
        assert tree.height == 2  # overflow split
        tree.check_invariants()

    @pytest.mark.parametrize("n", [1, 7, 25, 120, 400])
    def test_invariants_after_bulk_insert(self, n):
        tree = GaussTree(dims=3, degree=3)
        vectors = random_vectors(n, 3, seed=n)
        tree.extend(vectors)
        tree.check_invariants()
        assert len(tree) == n
        assert sorted(v.key for v in tree) == sorted(v.key for v in vectors)

    def test_duplicate_parameter_points_supported(self):
        tree = GaussTree(dims=2, degree=2)
        for i in range(20):
            tree.insert(PFV([0.5, 0.5], [0.1, 0.1], key=i))
        tree.check_invariants()
        assert len(tree) == 20

    @pytest.mark.parametrize("build", ["inserted", "bulk", "writable-v3"])
    def test_delete_finds_the_keyed_row_among_duplicates(
        self, build, tmp_path
    ):
        # 20 rows share mu/sigma: delete must match the parameters *and*
        # the key, so exactly row 7 goes, and only once.
        vectors = [PFV([0.5, 0.5], [0.1, 0.1], key=i) for i in range(20)]
        if build == "inserted":
            tree = GaussTree(dims=2, degree=2)
            tree.extend(vectors)
        else:
            tree = bulk_load(vectors, degree=2)
        if build == "writable-v3":
            path = str(tmp_path / "dup.gauss")
            tree.save(path, version=3)
            tree = GaussTree.open(path, writable=True)
        try:
            victim = PFV([0.5, 0.5], [0.1, 0.1], key=7)
            assert tree.delete(victim)
            assert not tree.delete(victim)
            tree.check_invariants()
            assert sorted(v.key for v in tree) == [
                i for i in range(20) if i != 7
            ]
        finally:
            tree.close()

    @given(
        n=st.integers(1, 80),
        d=st.integers(1, 4),
        degree=st.integers(2, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants_random(self, n, d, degree, seed):
        tree = GaussTree(dims=d, degree=degree)
        vectors = random_vectors(n, d, seed)
        tree.extend(vectors)
        tree.check_invariants()
        assert len(tree) == n

    def test_height_grows_logarithmically(self):
        tree = GaussTree(dims=2, degree=4)
        tree.extend(random_vectors(500, 2, 1))
        # 500 entries, leaves hold >= 4, fanout >= 2: height is modest.
        assert tree.height <= 8


class TestDeletion:
    def test_delete_returns_false_for_missing(self):
        tree = GaussTree(dims=2, degree=3)
        tree.extend(random_vectors(10, 2, 0))
        assert not tree.delete(PFV([9.0, 9.0], [0.5, 0.5], key="nope"))
        assert len(tree) == 10

    def test_delete_existing(self):
        vectors = random_vectors(30, 2, 3)
        tree = GaussTree(dims=2, degree=3)
        tree.extend(vectors)
        assert tree.delete(vectors[7])
        assert len(tree) == 29
        tree.check_invariants()
        assert vectors[7].key not in {v.key for v in tree}

    def test_delete_everything(self):
        vectors = random_vectors(40, 2, 5)
        tree = GaussTree(dims=2, degree=2)
        tree.extend(vectors)
        for v in vectors:
            assert tree.delete(v)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1

    def test_root_collapses_after_mass_delete(self):
        vectors = random_vectors(200, 2, 6)
        tree = GaussTree(dims=2, degree=3)
        tree.extend(vectors)
        tall = tree.height
        for v in vectors[:-5]:
            tree.delete(v)
        tree.check_invariants()
        assert tree.height < tall
        assert len(tree) == 5

    @given(
        seed=st.integers(0, 500),
        n=st.integers(10, 60),
        delete_ratio=st.floats(0.1, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaved_insert_delete(self, seed, n, delete_ratio):
        rng = np.random.default_rng(seed)
        vectors = random_vectors(n, 2, seed)
        tree = GaussTree(dims=2, degree=2)
        alive: list[PFV] = []
        for v in vectors:
            tree.insert(v)
            alive.append(v)
            if rng.random() < delete_ratio and alive:
                victim = alive.pop(rng.integers(0, len(alive)))
                assert tree.delete(victim)
        tree.check_invariants()
        assert sorted(v.key for v in tree) == sorted(v.key for v in alive)

    def test_queries_after_deletes(self):
        vectors = random_vectors(60, 2, 8)
        tree = GaussTree(dims=2, degree=3)
        tree.extend(vectors)
        for v in vectors[::3]:
            tree.delete(v)
        q = PFV([0.5, 0.5], [0.2, 0.2])
        matches, _ = gausstree_mliq(tree, MLIQuery(q, 3))
        assert len(matches) == 3
        remaining_keys = {v.key for v in tree}
        assert all(m.key in remaining_keys for m in matches)


class TestResultObjects:
    """Rows inserted from a caller's pfv hand that very object back in
    query results — before and after a delete from the same leaf."""

    def _queries(self, tree, q):
        matches, _ = gausstree_mliq(tree, MLIQuery(q, 5))
        found, _ = gausstree_tiq(tree, ThresholdQuery(q, 0.01))
        return matches + found

    def test_matches_are_the_inserted_objects(self):
        vectors = random_vectors(60, 2, 11)
        inserted = {v.key: v for v in vectors}
        tree = GaussTree(dims=2, degree=3)
        tree.extend(vectors)
        leaf = next(n for n in tree.leaves() if n.count > tree.leaf_min)
        kept, gone = leaf.entries[0], leaf.entries[1]
        q = PFV(kept.mu, kept.sigma)
        before = self._queries(tree, q)
        assert tree.delete(gone)
        assert any(r is leaf for r in tree.leaves())  # still holds `kept`
        after = self._queries(tree, q)
        assert kept.key in {m.key for m in after}
        for m in before + after:
            assert m.vector is inserted[m.key]


class TestTraversalHelpers:
    def test_nodes_and_leaves_cover_everything(self):
        tree = GaussTree(dims=2, degree=3)
        tree.extend(random_vectors(100, 2, 9))
        leaf_entries = sum(leaf.count for leaf in tree.leaves())
        assert leaf_entries == 100
        assert sum(1 for _ in tree.nodes()) >= sum(1 for _ in tree.leaves())

    def test_repr(self):
        tree = GaussTree(dims=2, degree=3)
        assert "GaussTree" in repr(tree)
