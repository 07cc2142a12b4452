"""The leaf directory: every leaf's rows, rectangle and pages under one
leaf order (``GaussTree.leaf_directory``).

One hypothesis property over in-memory trees, disk trees of both formats
and writable trees after inserts that split, deletes that condense and
an in-place ``save()``: each part of the directory agrees with the tree
it was built from, and the census reads, bit for bit, what it read when
the rectangles were listed parent by parent in child order.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.joint import PreparedColumns, log_joint_density_multi
from repro.core.pfv import PFV
from repro.gausstree import mliq
from repro.gausstree.batch import BatchRefiner
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import node_log_bounds_multi
from repro.gausstree.tree import GaussTree

from tests.conftest import make_random_db, make_random_query

_BOUNDS = ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi")


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _subtree(node):
    """The node's subtree in ``nodes()`` pre-order."""
    pending, out = [node], []
    while pending:
        node = pending.pop()
        out.append(node)
        if not node.is_leaf:
            pending.extend(node.children)
    return out


def _leaf_parents(tree):
    return [
        node
        for node in tree.nodes()
        if not node.is_leaf and node.children[0].is_leaf
    ]


def _census_reference(tree, refiner, query_index, k, tolerance):
    """``census_share`` over rectangles listed parent by parent in child
    order: the order the census read before the leaf directory."""
    parents = _leaf_parents(tree)
    leaves = [leaf for parent in parents for leaf in parent.children]
    stacks = [parent.stacked_child_bounds() for parent in parents]
    bounds = [np.concatenate(column) for column in zip(*stacks)]
    q_mu = refiner.q_mu[query_index : query_index + 1]
    q_sigma = refiner.q_sigma[query_index : query_index + 1]
    lower, upper = node_log_bounds_multi(*bounds, q_mu, q_sigma, tree.sigma_rule)
    lower, upper = lower[0], upper[0]
    best = int(np.argmax(upper))
    mu, sigma = leaves[best].arrays()
    row = log_joint_density_multi(mu, sigma, q_mu, q_sigma, tree.sigma_rule)[0]
    kth = float(np.partition(row, -k)[-k]) if len(row) >= k else -math.inf
    counts = np.array([leaf.count for leaf in leaves], dtype=np.intp)
    log_counts = np.log(counts)
    terms = log_counts + lower
    terms[best] = -math.inf
    terms = np.concatenate((terms, row))
    top = float(terms.max())
    terms -= top
    np.exp(terms, out=terms)
    log_low = top + math.log(float(terms.sum()))
    log_floor = math.log(tolerance) + log_low
    must = (upper > kth) | (log_counts + upper > log_floor)
    return int(counts[must].sum()) / len(tree)


def _check_directory(tree, queries):
    directory = tree.leaf_directory()
    # Every part first, so the checks below see what the build saw.
    columns, bounds = directory.columns, directory.bounds
    page_ids, subtrees, spans = (
        directory.page_ids, directory.subtrees, directory.spans,
    )
    root = tree.root
    leaves = [
        leaf for leaf in tree.leaves() if not (leaf is root and leaf.count == 0)
    ]
    assert [id(leaf) for leaf in directory.leaves] == [id(leaf) for leaf in leaves]
    assert directory.counts.tolist() == [leaf.count for leaf in leaves]
    assert _same_bits(
        directory.log_counts, np.log(np.array(directory.counts, dtype=float))
    )
    assert columns.rows == len(tree)
    for i, leaf in enumerate(leaves):
        start = int(directory.starts[i])
        stop = start + leaf.count
        prepared = PreparedColumns.stack(
            [leaf.arrays()], leaf.count, tree.dims, tree.sigma_rule
        )
        assert _same_bits(columns.mu[:, start:stop], prepared.mu)
        assert _same_bits(columns.power[:, start:stop], prepared.power)
        for name, bound in zip(_BOUNDS, bounds):
            assert _same_bits(bound[i], getattr(leaf.rect, name))
    assert all(bound.shape == (len(leaves), tree.dims) for bound in bounds)
    parents = _leaf_parents(tree)
    assert set(spans) == {parent.page_id for parent in parents}
    for parent in parents:
        start, stop = spans[parent.page_id]
        assert [id(leaf) for leaf in directory.leaves[start:stop]] == [
            id(child) for child in reversed(parent.children)
        ]
    nodes = list(tree.nodes())
    assert page_ids == [node.page_id for node in nodes]
    assert set(subtrees) == set(page_ids)
    for node in nodes:
        start, stop = subtrees[node.page_id]
        assert page_ids[start:stop] == [n.page_id for n in _subtree(node)]
    rows = np.arange(len(tree))
    located = directory.locate(rows)
    position = {id(leaf): i for i, leaf in enumerate(directory.leaves)}
    assert [
        directory.starts[position[id(leaf)]] + i for leaf, i in located
    ] == rows.tolist()
    assert all(0 <= i < leaf.count for leaf, i in located)
    if not parents:
        return
    refiner = BatchRefiner(tree, queries)
    for index in range(len(queries)):
        for k in (1, 5):
            for tolerance in (1e-9, 1e-3):
                assert mliq.census_share(
                    refiner, index, k, tolerance
                ).hex() == _census_reference(
                    tree, refiner, index, k, tolerance
                ).hex()
    q_mu, q_sigma = refiner.q_mu, refiner.q_sigma
    for parent in parents:
        got = refiner.child_log_bounds(parent)
        want = node_log_bounds_multi(
            *parent.stacked_child_bounds(), q_mu, q_sigma, tree.sigma_rule
        )
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def _vectors(n, d, seed, tag):
    return [
        PFV(v.mu, v.sigma, key=(tag, v.key))
        for v in make_random_db(n=n, d=d, seed=seed).vectors
    ]


class TestLeafDirectory:
    @given(
        kind=st.sampled_from(["memory", "disk", "writable"]),
        version=st.sampled_from([2, 3]),
        n=st.integers(0, 160),
        d=st.integers(1, 4),
        degree=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        save_in_place=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_the_directory_is_the_tree_under_one_leaf_order(
        self, tmp_path_factory, kind, version, n, d, degree, seed,
        save_in_place,
    ):
        vectors = _vectors(n, d, seed, "base")
        queries = [make_random_query(d=d, seed=seed + 1), *vectors[:2]]
        base = (
            bulk_load(vectors, degree=degree)
            if vectors
            else GaussTree(dims=d, degree=degree)
        )
        if kind == "memory":
            _check_directory(base, queries)
            return
        path = str(tmp_path_factory.mktemp("directory") / "tree.gauss")
        base.save(path, version=version)
        tree = GaussTree.open(path, writable=kind == "writable", fsync=False)
        try:
            _check_directory(tree, queries)
            if kind != "writable":
                return
            # Inserts that split, then deletes that condense: each
            # must drop the directory the last check built.
            pages = len(tree.leaf_directory().page_ids)
            tree.insert_many(_vectors(3 * degree + n // 2, d, seed + 2, "x"))
            assert len(list(tree.nodes())) > pages
            _check_directory(tree, queries)
            for v in vectors[: n // 2]:
                assert tree.delete(v)
            _check_directory(tree, queries)
            if save_in_place:
                tree.save(path)
                _check_directory(tree, queries)
            tree.insert_many(_vectors(degree, d, seed + 3, "y"))
            _check_directory(tree, queries)
        finally:
            tree.close()
