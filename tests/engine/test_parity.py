"""Cross-backend parity: one query model, interchangeable access methods.

The paper's core claim, enforced as a property: for random databases and
random MLIQ/TIQ/Rank specs, every registered *exact* backend returns the
identical match set through ``Session.execute`` — the in-memory tree,
the disk-opened tree (a genuine save/open round trip per example, pages
decoded lazily from bytes) and the sequential scan. The X-tree backend
is excluded by design: its quantile-rectangle filter admits false
dismissals (it does not declare the ``"exact"`` capability, and the
planner flags it), so identical answer sets are exactly the property it
trades away.

Posterior *probabilities* must agree to tight tolerance as well; key
*order* may differ between backends only within density ties, so the
assertions compare sets plus per-key posteriors rather than sequences.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery
from repro.core.scan import scan_mliq
from repro.engine import (
    MLIQ,
    TIQ,
    ConsensusTopK,
    Delete,
    ExpectedRank,
    Insert,
    RankQuery,
    available_backends,
    connect,
    session_for,
)
from repro.gausstree.batch import gausstree_mliq_many
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.tree import GaussTree

EXACT_DB_BACKENDS = ("tree", "seqscan")


@st.composite
def parity_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 28))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    db = PFVDatabase(
        [
            PFV(
                rng.uniform(0.0, 1.0, d),
                rng.uniform(0.05, 0.4, d),
                key=i,
            )
            for i in range(n)
        ]
    )
    q = PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d))
    kind = draw(st.sampled_from(["mliq", "tiq", "rank", "consensus", "erank"]))
    if kind == "mliq":
        spec = MLIQ(q, draw(st.integers(0, n + 3)))
    elif kind == "tiq":
        spec = TIQ(q, tau=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9])))
    elif kind == "consensus":
        spec = ConsensusTopK(q, draw(st.integers(0, n + 3)))
    elif kind == "erank":
        spec = ExpectedRank(q, draw(st.integers(0, n + 3)))
    else:
        spec = RankQuery(q, draw(st.integers(0, n + 3)))
    return db, spec


def _answer(session, spec):
    """Per-key (posterior, semantics score) — score is None for the
    plain MLIQ/TIQ/Rank kinds, so the same comparison covers all five."""
    rs = session.execute(spec)
    return {m.key: (m.probability, m.score) for m in rs.matches}


def _assert_close(backend, spec, got, reference, *, rel_tol, abs_tol):
    assert set(got) == set(reference), (
        f"{backend} answered keys {sorted(got)}, "
        f"reference answered {sorted(reference)} for {spec}"
    )
    for key, (p, score) in got.items():
        ref_p, ref_score = reference[key]
        assert math.isclose(p, ref_p, rel_tol=rel_tol, abs_tol=abs_tol), (
            f"{backend} posterior for {key}: {p} != {ref_p} for {spec}"
        )
        assert (score is None) == (ref_score is None), (
            f"{backend} score presence mismatch for {key} on {spec}"
        )
        if score is not None:
            assert math.isclose(
                score, ref_score, rel_tol=rel_tol, abs_tol=abs_tol
            ), (
                f"{backend} score for {key}: {score} != {ref_score} "
                f"for {spec}"
            )


@given(case=parity_case())
@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_exact_backend_returns_the_same_matches(case, tmp_path_factory):
    db, spec = case
    answers = {}
    for backend in EXACT_DB_BACKENDS:
        with connect(db, backend=backend) as session:
            answers[backend] = _answer(session, spec)
    bulk_answer = None
    if len(db) > 0:
        # The disk backend needs a saved index: full save/open round
        # trip, so parity also covers the lazy page-decoding path. The
        # same tree is saved in both disk formats — interleaved v2 and
        # columnar v3 — so parity covers both page decoders.
        tmp = tmp_path_factory.mktemp("parity")
        bulk = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        bulk_answer = _answer(session_for(bulk), spec)
        for version in (2, 3):
            path = str(tmp / f"idx.v{version}.gauss")
            bulk.save(path, version=version)
            with connect(path, backend="disk") as session:
                answers[f"disk-v{version}"] = _answer(session, spec)
    # The sharded fan-out must merge per-shard candidates into the same
    # global answer the single tree gives — including N=1 (degenerate
    # fan-out), shards left empty by the hash (n small vs N=3), and the
    # k==0 / k>n / empty-database edge cases normalised in the spec
    # table. Its posteriors renormalise against the cross-shard Bayes
    # denominator, so equality here is the distributed-merge proof.
    for n_shards in (1, 2, 3):
        with connect(
            db, backend="sharded", shards=n_shards, inner="tree"
        ) as session:
            answers[f"sharded-{n_shards}"] = _answer(session, spec)

    reference = answers.pop("seqscan")
    tree_reference = answers["tree"]
    for backend, got in answers.items():
        _assert_close(
            backend, spec, got, reference, rel_tol=1e-6, abs_tol=1e-9
        )
        if backend.startswith("sharded"):
            # The issue's acceptance bar: sharded(tree, N) within 1e-9
            # of the single tree backend — posteriors *and* the
            # consensus/expected-rank scores, match sets identical.
            _assert_close(
                backend, spec, got, tree_reference, rel_tol=0.0,
                abs_tol=1e-9,
            )
    if bulk_answer is not None:
        # Disk-format acceptance bar, *bit for bit*: the columnar v3
        # file, the interleaved v2 file and the in-memory bulk-loaded
        # tree share one structure, one traversal and one Lemma-1
        # kernel, so their posteriors must be float-identical — no
        # tolerance. (The cross-structure checks above keep their
        # tolerances: an insertion-built tree legitimately stops at a
        # different point inside the 1e-9 posterior interval.)
        assert answers["disk-v3"] == answers["disk-v2"] == bulk_answer


@st.composite
def interleaved_case(draw):
    """A random db plus a random interleaved Insert/Delete/query batch
    (queries sprinkled between write runs, including batched inserts)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 15))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)

    def fresh(tag, i):
        return PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(0.05, 0.4, d),
            key=(tag, i),
        )

    db = PFVDatabase([fresh("base", i) for i in range(n)])
    alive = list(db)
    specs = []
    ops = draw(st.lists(st.integers(0, 3), min_size=2, max_size=14))
    for i, op in enumerate(ops):
        q = PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d))
        if op == 0:  # insert (consecutive ones form a group-commit run)
            v = fresh("new", i)
            specs.append(Insert(v))
            alive.append(v)
        elif op == 1 and alive:  # delete something that exists
            specs.append(Delete(alive.pop(int(rng.integers(len(alive))))))
        elif op == 2:
            specs.append(MLIQ(q, draw(st.integers(0, n + 3))))
        else:
            specs.append(
                TIQ(q, tau=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])))
            )
    # Always end with a query so the final write run is observed.
    q = PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d))
    specs.append(MLIQ(q, n + 3))
    return db, specs


@given(case=interleaved_case())
@settings(deadline=None)
def test_interleaved_writes_and_queries_match_single_writable_tree(case):
    """The issue's write-router acceptance bar: an interleaved
    write+query batch through writable sharded(tree, N∈{1,2,3})
    sessions answers every query exactly like one writable tree —
    each query sees the writes that precede it in the batch, routed
    writes land on their owning shards, and posteriors renormalise
    against the cross-shard Bayes denominator (within 1e-9)."""
    db, specs = case
    with connect(db, backend="tree") as session:
        reference = session.execute_many(specs)
        reference_n = len(session)
    for n_shards in (1, 2, 3):
        for policy in ("hash", "round-robin"):
            with connect(
                db,
                backend="sharded",
                shards=n_shards,
                inner="tree",
                policy=policy,
                writable=True,
            ) as session:
                sharded = session.execute_many(specs)
                assert len(session) == reference_n
            label = f"sharded-{n_shards}/{policy}"
            for spec, ref_matches, got_matches in zip(
                specs, reference, sharded
            ):
                ref = {m.key: m.probability for m in ref_matches}
                got = {m.key: m.probability for m in got_matches}
                assert set(got) == set(ref), (label, spec, got, ref)
                for key, p in got.items():
                    assert math.isclose(
                        p, ref[key], rel_tol=0.0, abs_tol=1e-9
                    ), (label, spec, key, p, ref[key])


def test_registry_documents_exactness_split():
    names = available_backends()
    for required in ("tree", "disk", "seqscan", "xtree"):
        assert required in names
    # xtree is registered but advertises approximation, which is why the
    # parity property above excludes it.
    db = PFVDatabase(
        [PFV([0.1 * i, 0.2], [0.1, 0.1], key=i) for i in range(10)]
    )
    with connect(db, backend="xtree") as session:
        assert "exact" not in session.capabilities
    with connect(db, backend="tree") as session:
        assert "exact" in session.capabilities


# -- multi-level trees ---------------------------------------------------------
#
# The cases above hold at most 28 rows, so every tree they build is one
# root leaf. These build two-level trees (a root over leaves, which
# answer every k-MLIQ with one sweep of the leaf stack) and deeper ones
# (a best-first traversal, which may still sweep once its hulls stop
# pruning) by bulk loading with a small degree M: leaves hold at most
# 2M rows, and the median packing makes a power of two leaves.


def _rows(d, n, rng):
    return [
        PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d), key=i)
        for i in range(n)
    ]


def _two_level_rows(draw, degree):
    """A row count that bulk-loads into a root over leaves at ``degree``:
    more than one leaf's 2M rows, at most M leaves of them."""
    leaves = 1 << (degree.bit_length() - 1)  # a power of two <= M
    return draw(st.integers(2 * degree + 1, 2 * degree * leaves))


@st.composite
def multilevel_case(draw):
    shape = draw(st.sampled_from(["two-level", "deeper"]))
    d = draw(st.integers(1, 4))
    if shape == "two-level":
        degree = draw(st.integers(2, 6))
        n = _two_level_rows(draw, degree)
    else:
        # More than M leaves of 2M rows cannot hang from one root.
        degree = draw(st.integers(2, 3))
        n = draw(st.integers(2 * degree * degree + 1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    db = PFVDatabase(_rows(d, n, rng))
    queries = [
        MLIQuery(
            PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d)),
            draw(st.integers(1, n + 2)),
        )
        for _ in range(draw(st.integers(1, 16)))
    ]
    return shape, degree, db, queries


def _bits(matches):
    return [(m.key, m.log_density, m.probability) for m in matches]


@given(case=multilevel_case())
@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_multilevel_trees_answer_as_the_scan(case, tmp_path_factory):
    """In-memory, cold and warm v2/v3 disk trees of two or more levels
    answer every k-MLIQ of a 1-16 query batch as the scan does: the same
    keys in the same order, the same log densities bit for bit and
    posteriors within 1e-12 (``tolerance=0.0`` makes the traversal's
    exact too). Batch answers equal singleton answers bit for bit, and
    on a two-level tree every query sweeps: one expanded node, every
    node page read, every row refined."""
    shape, degree, db, queries = case
    bulk = bulk_load(db.vectors, degree=degree, sigma_rule=db.sigma_rule)
    assert (bulk.height == 2) == (shape == "two-level"), bulk.height
    node_pages = sum(1 for _ in bulk.nodes())
    tmp = tmp_path_factory.mktemp("multilevel")
    trees = {"memory": bulk}
    for version in (2, 3):
        path = str(tmp / f"idx.v{version}.gauss")
        bulk.save(path, version=version)
        trees[f"v{version}"] = GaussTree.open(path)
    want = [scan_mliq(db, query) for query in queries]
    answers = {}
    try:
        for label, tree in trees.items():
            # On a disk tree the first batch runs cold, the last warm.
            cold, _ = gausstree_mliq_many(tree, queries, 0.0)
            singles = []
            for query in queries:
                (matches,), stats = gausstree_mliq_many(tree, [query], 0.0)
                singles.append(matches)
                if shape == "two-level":
                    assert stats.swept == 1, label
                    assert stats.nodes_expanded == 1, label
                    assert stats.pages_accessed == node_pages, label
                    assert stats.objects_refined == len(db), label
            warm, _ = gausstree_mliq_many(tree, queries, 0.0)
            answers[label] = [_bits(matches) for matches in singles]
            assert [_bits(m) for m in cold] == answers[label], label
            assert [_bits(m) for m in warm] == answers[label], label
    finally:
        for label in ("v2", "v3"):
            trees[label].close()
    assert answers["v2"] == answers["v3"] == answers["memory"]
    for query, got, ref in zip(queries, answers["memory"], want):
        assert [key for key, _, _ in got] == [m.key for m in ref], query
        assert [ld for _, ld, _ in got] == [m.log_density for m in ref]
        for (_, _, p), m in zip(got, ref):
            assert math.isclose(p, m.probability, rel_tol=0.0, abs_tol=1e-12)


@st.composite
def two_level_shards_case(draw):
    n_shards = draw(st.integers(2, 3))
    degree = draw(st.integers(2, 6))
    # Round-robin placement gives every shard exactly this many rows.
    n = n_shards * _two_level_rows(draw, degree)
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    db = PFVDatabase(_rows(d, n, rng))
    specs = []
    for _ in range(draw(st.integers(1, 8))):
        q = PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d))
        k = draw(st.integers(1, n + 2))
        specs.append(
            draw(st.sampled_from([MLIQ(q, k), ConsensusTopK(q, k)]))
        )
    return n_shards, degree, db, specs


@given(case=two_level_shards_case())
@settings(deadline=None)
def test_two_level_shards_stay_within_1e9_of_one_tree(case):
    """Shards that each sweep every query merge into one tree's answers:
    the same keys in the same order, posteriors and consensus scores
    within 1e-9."""
    n_shards, degree, db, specs = case
    with connect(db, backend="tree") as session:
        reference = session.execute_many(specs)
    with connect(
        db,
        backend="sharded",
        shards=n_shards,
        inner="tree",
        policy="round-robin",
        inner_options={"degree": degree},
    ) as session:
        sharded = session.execute_many(specs)
    assert sharded.stats.swept == n_shards * len(specs)
    for spec, got, want in zip(specs, sharded, reference):
        assert [m.key for m in got] == [m.key for m in want], spec
        for g, w in zip(got, want):
            assert math.isclose(
                g.probability, w.probability, rel_tol=0.0, abs_tol=1e-9
            ), spec
            if w.score is not None:
                assert math.isclose(
                    g.score, w.score, rel_tol=0.0, abs_tol=1e-9
                ), spec
