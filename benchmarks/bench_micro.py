"""Microbenchmarks of the hot paths (timed with pytest-benchmark proper).

These are the kernels whose cost the 2006 cost model abstracts: hull
bound evaluation, batched Lemma-1 refinement, tree insertion, bulk
loading and the two query algorithms on a mid-sized tree. The two
``*_multi`` kernels also run at the shapes the end-to-end benchmark
feeds them, ``(m queries, rows, d)``, the Lemma-1 kernel over prepared
columns at the shapes of the leaf directories that sweeping queries
evaluate, and the finish of a swept shard batch. An identify-disk
singleton, which the leaf-hull census sweeps, runs beside a sequential
scan of the same rows, and its 16 queries also run as one census-swept
batch. Data set 1's rank-only 1-MLIQs run as 16- and 100-query
batches beside the same queries as singletons, and its TIQ(q, 0.8) as
a 16-query batch beside its singletons. The leaf directory's builds run at the two
shapes where a write makes the next query rebuild it: identify-disk's
tree and a reid-churn shard's 100-row root leaf.

    python -m pytest benchmarks/bench_micro.py -q --benchmark-only
"""

import itertools
import math

import numpy as np
import pytest

from repro import MLIQ, TIQ, connect, session_for
from repro.core.joint import (
    PreparedColumns,
    log_joint_density_batch,
    log_joint_density_multi,
)
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.eval.figures import dataset1
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.hull import (
    log_hull_upper,
    node_log_bounds_batch,
    node_log_bounds_multi,
)
from repro.gausstree.mliq import gausstree_mliq, sweep_matches
from repro.gausstree.tree import GaussTree

D = 10


@pytest.fixture(scope="module")
def db():
    return uniform_pfv_dataset(n=5_000, d=D)


@pytest.fixture(scope="module")
def tree(db):
    return bulk_load(db.vectors, sigma_rule=db.sigma_rule)


@pytest.fixture(scope="module")
def query(db):
    return identification_workload(db, 1, seed=3)[0].q


def test_hull_upper_scalar_grid(benchmark):
    x = np.linspace(-3, 3, 1_000)
    benchmark(lambda: log_hull_upper(x, 0.0, 1.0, 0.1, 0.8))


def test_node_bounds_batch(benchmark, query, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    k = 32
    mu_lo = rng.uniform(0, 0.5, (k, D))
    mu_hi = mu_lo + rng.uniform(0, 0.5, (k, D))
    sg_lo = rng.uniform(0.01, 0.1, (k, D))
    sg_hi = sg_lo + rng.uniform(0, 0.2, (k, D))
    benchmark(lambda: node_log_bounds_batch(mu_lo, mu_hi, sg_lo, sg_hi, query))


def test_joint_density_batch(benchmark, db, query):
    mu, sigma = db.mu_matrix, db.sigma_matrix
    benchmark(lambda: log_joint_density_batch(mu, sigma, query))


def _uniform_pfv_stack(rng, rows, d):
    return rng.uniform(0, 1, (rows, d)), rng.uniform(0.01, 0.1, (rows, d))


# (1, 740, 10): a singleton query's leaf group on identify-disk (20,000 x
# 10-d); (16, 341, 6): a coalesced 16-query leaf group on one
# identify-sharded shard (16,000 x 6-d over 8 shards).
@pytest.mark.parametrize("m, n, d", [(1, 740, 10), (16, 341, 6)])
def test_joint_density_multi(benchmark, m, n, d):
    rng = np.random.default_rng(0)
    mu, sigma = _uniform_pfv_stack(rng, n, d)
    q_mu, q_sigma = _uniform_pfv_stack(rng, m, d)
    benchmark(lambda: log_joint_density_multi(mu, sigma, q_mu, q_sigma))


# Leaf directory rows, which a sweeping k-MLIQ evaluates whole: (1, 20000, 10)
# identify-disk's; (16, 2000, 6) one identify-sharded shard's under a
# full coalesced batch; (1, 10987, 27) data set 1's; (100, 20000, 10) a
# 100-query batch over identify-disk's, which the kernel runs in blocks
# of one query.
@pytest.mark.parametrize(
    "m, n, d",
    [(1, 20000, 10), (16, 2000, 6), (1, 10987, 27), (100, 20000, 10)],
)
def test_joint_density_prepared(benchmark, m, n, d):
    rng = np.random.default_rng(0)
    columns = PreparedColumns.stack([_uniform_pfv_stack(rng, n, d)], n, d)
    q_mu, q_sigma = _uniform_pfv_stack(rng, m, d)
    benchmark(lambda: columns.log_densities(q_mu, q_sigma))


def test_sweep_finish(benchmark):
    """The finish of a 16-query MLIQ(q, 5) batch swept over one
    identify-sharded shard's stack (2,090 x 6-d, a root over its
    leaves): top 5, denominators and row references for every query."""
    shard = uniform_pfv_dataset(n=2_090, d=6, seed=1)
    tree = bulk_load(shard.vectors, sigma_rule=shard.sigma_rule)
    queries = [w.q for w in identification_workload(shard, 16, seed=2)]
    rows = tree.leaf_directory().columns.log_densities(
        np.vstack([q.mu for q in queries]),
        np.vstack([q.sigma for q in queries]),
    )
    benchmark(lambda: sweep_matches(tree, rows, [5] * len(queries)))


@pytest.fixture(scope="module")
def identify_index(tmp_path_factory):
    """identify-disk's rows, 20,000 x 10-d, and their saved index."""
    rows = uniform_pfv_dataset(n=20_000, d=10, seed=4)
    path = tmp_path_factory.mktemp("identify") / "index.gauss"
    bulk_load(rows.vectors, sigma_rule=rows.sigma_rule).save(path)
    return rows, path


@pytest.fixture(scope="module")
def identify_disk(identify_index):
    """identify-disk's index, a warm 20,000 x 10-d disk tree, and a
    sequential scan over the same rows, each as a session, with 16
    identification queries."""
    rows, path = identify_index
    tree = connect(path)
    scan = connect(rows, backend="seqscan")
    specs = [MLIQ(w.q, 5) for w in identification_workload(rows, 16, seed=5)]
    for spec in specs:  # every page resident, the leaf directory built
        tree.execute(spec)
        scan.execute(spec)
    yield tree, scan, specs
    tree.close()
    scan.close()


def test_census_swept_singleton(benchmark, identify_disk):
    """identify-disk's query, MLIQ(q, 5) at 1e-9: the leaf-hull census
    sends it to the sweep right after the root's expansion."""
    tree, _, specs = identify_disk
    stats = tree.execute(specs[0]).stats
    assert (stats.swept, stats.nodes_expanded) == (1, 1)
    cycle = itertools.cycle(specs)
    benchmark(lambda: tree.execute(next(cycle)))


def test_seqscan_singleton(benchmark, identify_disk):
    """The same queries answered by a sequential scan of the same rows."""
    _, scan, specs = identify_disk
    cycle = itertools.cycle(specs)
    benchmark(lambda: scan.execute(next(cycle)))


def test_census_swept_batch(benchmark, identify_disk):
    """identify-disk's 16 queries as one batch: the census sweeps every
    one after the root's expansion, and one finish answers all 16."""
    tree, _, specs = identify_disk
    stats = tree.execute_many(specs).stats
    assert (stats.swept, stats.nodes_expanded) == (16, 16)
    benchmark(lambda: tree.execute_many(specs))


@pytest.fixture(scope="module")
def ds1():
    """Data set 1 (10,987 x 27-d) in memory: the paper's Figure-7
    setting, where the traversal prunes."""
    db = dataset1()
    return db, bulk_load(db.vectors, sigma_rule=db.sigma_rule)


@pytest.fixture(scope="module")
def ds1_rank_only(ds1):
    """A rank-only session (``mliq_tolerance=math.inf``) over data set 1
    and identification 1-MLIQs, 16 and 100 of them: the paper's
    Figure-7 query. One of the 16 sweeps at a checkpoint, as in most
    16-query batches of this traffic (15 of 160 queries sweep)."""
    db, tree = ds1
    session = session_for(tree, mliq_tolerance=math.inf)
    specs = {
        count: [
            MLIQ(w.q, 1) for w in identification_workload(db, count, seed=1)
        ]
        for count in (16, 100)
    }
    assert session.execute_many(specs[16]).stats.swept == 1
    return session, specs


def _batch_or_singletons(benchmark, session, specs, form):
    """The queries as one ``execute_many`` or as one ``execute`` call
    each (the batch should cost no more than its queries alone)."""
    if form == "batch":
        benchmark(lambda: session.execute_many(specs))
    else:
        benchmark(lambda: [session.execute(spec) for spec in specs])


@pytest.mark.parametrize("count", [16, 100])
@pytest.mark.parametrize("form", ["batch", "singletons"])
def test_ds1_rank_only(benchmark, ds1_rank_only, form, count):
    session, specs = ds1_rank_only
    _batch_or_singletons(benchmark, session, specs[count], form)


@pytest.mark.parametrize("form", ["batch", "singletons"])
def test_ds1_tiq(benchmark, ds1, form):
    """16 identification TIQ(q, 0.8) over data set 1 in memory; every one
    traverses."""
    db, tree = ds1
    session = session_for(tree)
    specs = [TIQ(w.q, 0.8) for w in identification_workload(db, 16, seed=1)]
    _batch_or_singletons(benchmark, session, specs, form)


def _rebuilt_directory(tree, parts):
    """Drop the tree's leaf directory, as a write does, and build it and
    the named parts again."""
    tree._leaf_directory = None
    directory = tree.leaf_directory()
    return [getattr(directory, part) for part in parts]


@pytest.mark.parametrize("part", ["columns", "bounds"])
def test_leaf_directory_identify_disk(benchmark, identify_index, part):
    """The leaf directory's rows (every leaf page decoded into prepared
    columns) or its rectangles (the leaf parents' bounds) on a warm
    identify-disk tree: what the first swept query after a write pays,
    besides the walk over the tree's 543 nodes."""
    rows, path = identify_index
    tree = GaussTree.open(path)
    query = identification_workload(rows, 1, seed=5)[0].q
    _, stats = gausstree_mliq(tree, MLIQuery(query, 5))
    assert stats.swept == 1  # every page resident, every inner node decoded
    benchmark(lambda: _rebuilt_directory(tree, [part]))
    tree.close()


def test_leaf_directory_root_leaf(benchmark, tmp_path):
    """A whole leaf directory of a reid-churn shard, a 100-row 4-d root
    leaf on disk, which that workload rebuilds after every write."""
    shard = uniform_pfv_dataset(n=100, d=4, seed=6)
    path = tmp_path / "shard.gauss"
    bulk_load(shard.vectors, sigma_rule=shard.sigma_rule).save(path)
    tree = GaussTree.open(path)
    assert tree.root.is_leaf
    parts = ["columns", "bounds", "spans", "page_ids", "subtrees"]
    benchmark(lambda: _rebuilt_directory(tree, parts))
    tree.close()


# (1, 190, 10): an inner-node group on identify-disk; (16, 32, 6): the
# children of an identify-sharded shard's root for a 16-query batch.
@pytest.mark.parametrize("m, k, d", [(1, 190, 10), (16, 32, 6)])
def test_node_bounds_multi(benchmark, m, k, d):
    rng = np.random.default_rng(0)
    mu_lo, sg_lo = _uniform_pfv_stack(rng, k, d)
    mu_hi = mu_lo + rng.uniform(0, 0.2, (k, d))
    sg_hi = sg_lo + rng.uniform(0, 0.1, (k, d))
    q_mu, q_sigma = _uniform_pfv_stack(rng, m, d)
    benchmark(
        lambda: node_log_bounds_multi(mu_lo, mu_hi, sg_lo, sg_hi, q_mu, q_sigma)
    )


def test_tree_insert(benchmark, db):
    vectors = list(db.vectors[:500])

    def build():
        t = GaussTree(dims=D)
        t.extend(vectors)
        return t

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_bulk_load(benchmark, db):
    benchmark.pedantic(
        lambda: bulk_load(db.vectors, sigma_rule=db.sigma_rule),
        rounds=3,
        iterations=1,
    )


def test_mliq_query(benchmark, tree, query):
    benchmark(lambda: gausstree_mliq(tree, MLIQuery(query, 1), tolerance=0.01))


def test_tiq_query(benchmark, tree, query):
    from repro.gausstree.tiq import gausstree_tiq

    benchmark(lambda: gausstree_tiq(tree, ThresholdQuery(query, 0.5)))
