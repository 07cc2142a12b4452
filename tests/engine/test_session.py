"""The unified session API: connect, execute, explain, capabilities.

Behavioral contract of ``repro.engine``: every backend answers the same
specs with the same ResultSet shape, the normalised edge-case semantics
hold on all of them, rank queries lower to MLIQ + mass cut, plans
describe execution without running it, and ``session_for`` adopts only
the built-in indexes and ready adapters.
"""

import math
import warnings

import numpy as np
import pytest

import repro
from repro.baselines.seqscan import SequentialScanIndex
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import Match, MLIQuery, ThresholdQuery
from repro.engine import (
    MLIQ,
    TIQ,
    CapabilityError,
    ConsensusTopK,
    ExpectedRank,
    RankQuery,
    available_backends,
    connect,
    register_backend,
    session_for,
)
from repro.gausstree.bulkload import bulk_load
from repro.storage.costmodel import PAPER_TESTBED

from tests.conftest import make_random_db, make_random_query

EXACT_BACKENDS = ("tree", "seqscan")


@pytest.fixture(scope="module")
def db():
    return make_random_db(n=90, d=3, seed=11)


@pytest.fixture(scope="module")
def q():
    return make_random_query(d=3, seed=12)


class TestSpecs:
    def test_mliq_accepts_k_zero_rejects_negative(self, q):
        assert MLIQ(q, 0).k == 0
        with pytest.raises(ValueError):
            MLIQ(q, -1)

    def test_tiq_validates_tau_and_eps(self, q):
        with pytest.raises(ValueError):
            TIQ(q, tau=1.5)
        with pytest.raises(ValueError):
            TIQ(q, tau=0.5, eps=-0.1)

    def test_rank_validates_min_mass(self, q):
        with pytest.raises(ValueError):
            RankQuery(q, 3, min_mass=0.0)
        assert RankQuery(q, 3, min_mass=1.0).min_mass == 1.0

    def test_non_spec_rejected_by_execute(self, db, q):
        with connect(db, backend="seqscan") as s:
            with pytest.raises(TypeError):
                s.execute(MLIQuery(q, 3))  # legacy spec, not an engine spec


class TestExecute:
    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_mliq_matches_reference_scan(self, db, q, backend):
        from repro.core.scan import scan_mliq

        with connect(db, backend=backend) as s:
            rs = s.execute(MLIQ(q, 7))
        want = [m.key for m in scan_mliq(db, MLIQuery(q, 7))]
        assert [m.key for m in rs.matches] == want
        assert rs.backend == backend
        assert rs.stats.pages_accessed > 0

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_tiq_matches_reference_scan(self, db, q, backend):
        from repro.core.scan import scan_tiq

        with connect(db, backend=backend) as s:
            rs = s.execute(TIQ(q, tau=0.05))
        want = [m.key for m in scan_tiq(db, ThresholdQuery(q, 0.05))]
        assert [m.key for m in rs.matches] == want

    def test_rank_is_mliq_plus_mass_cut(self, db, q):
        with connect(db, backend="seqscan") as s:
            full = s.execute(MLIQ(q, 20)).matches
            ranked = s.execute(RankQuery(q, 20, min_mass=0.9)).matches
        # A prefix of the MLIQ ranking, cut where cumulative mass >= 0.9.
        assert [m.key for m in ranked] == [m.key for m in full[: len(ranked)]]
        mass = sum(m.probability for m in ranked)
        assert mass >= 0.9 or len(ranked) == 20
        if len(ranked) > 1:
            assert sum(m.probability for m in ranked[:-1]) < 0.9

    def test_execute_many_mixed_kinds_in_input_order(self, db, q):
        q2 = make_random_query(d=3, seed=77)
        specs = [MLIQ(q, 3), TIQ(q2, 0.01), RankQuery(q, 5), MLIQ(q2, 1)]
        with connect(db, backend="tree") as s:
            rs = s.execute_many(specs)
            singles = [s.execute(spec)[0] for spec in specs]
        assert len(rs) == 4
        for got, want in zip(rs, singles):
            assert [m.key for m in got] == [m.key for m in want]
        assert rs.queries == tuple(specs)

    def test_resultset_shape(self, db, q):
        with connect(db, backend="seqscan") as s:
            rs = s.execute_many([MLIQ(q, 2), MLIQ(q, 3)])
        assert len(rs) == 2 and len(rs[1]) == 3
        assert rs.keys() == [[m.key for m in per] for per in rs]
        with pytest.raises(ValueError):
            _ = rs.matches  # multi-query: must index per query
        cum = rs.cumulative_probability(1)
        assert cum == sorted(cum) and len(cum) == 3


class TestBuiltAnswers:
    """Inside the engine a Gauss-tree answers with row references, which
    a later write would move; every answer leaves ``execute`` built."""

    @pytest.mark.parametrize("backend", ["tree", "disk", "sharded"])
    def test_answers_are_built_and_outlive_later_writes(
        self, tmp_path, db, backend
    ):
        # Degree 3 keeps leaves at 3-6 rows: the deletes and inserts
        # below shift, split and dissolve the leaves the answers sit in.
        tree = bulk_load(db.vectors, degree=3, sigma_rule=db.sigma_rule)
        if backend == "disk":
            path = str(tmp_path / "built.gauss")
            tree.save(path)
            session = connect(path, writable=True, fsync=False)
        elif backend == "tree":
            session = session_for(tree)
        else:
            session = connect(
                db,
                backend="sharded",
                shards=2,
                inner="tree",
                writable=True,
                inner_options={"degree": 3},
            )
        q = PFV(db[7].mu, db[7].sigma)
        specs = [
            MLIQ(q, 5),
            TIQ(q, 0.01),
            RankQuery(q, 4),
            ConsensusTopK(q, 3),
            ExpectedRank(q, 3),
        ]
        with session:
            rs = session.execute_many(specs)
            seen = {}
            for matches in rs:
                assert matches
                for m in matches:
                    assert type(m) is Match
                    assert isinstance(m.vector, PFV)
                    seen[id(m)] = (m, m.key, m.vector.mu, m.vector.sigma)
            answered = {m.key: m.vector for m, *_ in seen.values()}
            for v in list(answered.values())[:3]:
                assert session.delete(v)
            session.insert_many(
                PFV(q.mu + 0.01 * i, q.sigma, key=("new", i))
                for i in range(12)
            )
            for m, key, mu, sigma in seen.values():
                assert m.key == key
                assert np.array_equal(m.vector.mu, mu)
                assert np.array_equal(m.vector.sigma, sigma)
        for m, key, _, _ in seen.values():
            assert m.key == key


class TestEdgeSemantics:
    """The normalised table of repro.engine.spec, on every backend."""

    @pytest.mark.parametrize("backend", ("tree", "seqscan", "xtree"))
    def test_k_zero_and_k_beyond_n(self, db, q, backend):
        with connect(db, backend=backend) as s:
            assert s.execute(MLIQ(q, 0)).matches == []
            got = s.execute(MLIQ(q, len(db) + 50)).matches
            assert 0 < len(got) <= len(db)
            if "exact" in s.capabilities:
                assert len(got) == len(db)

    @pytest.mark.parametrize("backend", ("tree", "seqscan", "xtree"))
    def test_empty_database(self, q, backend):
        with connect(PFVDatabase(), backend=backend) as s:
            assert len(s) == 0
            assert s.execute(MLIQ(q, 5)).matches == []
            assert s.execute(TIQ(q, 0.2)).matches == []
            assert s.execute(RankQuery(q, 3, min_mass=0.5)).matches == []

    def test_tau_zero_returns_full_ranked_database(self, db, q):
        for backend in EXACT_BACKENDS:
            with connect(db, backend=backend) as s:
                assert len(s.execute(TIQ(q, tau=0.0)).matches) == len(db)

    def test_empty_tree_session_promotes_on_insert(self, q):
        s = connect([], backend="tree")
        assert s.writable and len(s) == 0
        s.insert(PFV([0.5, 0.5, 0.5], [0.1, 0.1, 0.1], key="first"))
        assert len(s) == 1
        assert s.execute(MLIQ(q, 1)).keys() == [["first"]]

    def test_empty_tree_promotion_keeps_sigma_rule(self):
        from repro.core.joint import SigmaRule

        src = PFVDatabase(sigma_rule=SigmaRule.PAPER)
        s = connect(src, backend="tree")
        assert s.database().sigma_rule is SigmaRule.PAPER
        s.insert(PFV([0.5, 0.5], [0.1, 0.1], key="first"))
        assert s.database().sigma_rule is SigmaRule.PAPER


class TestSources:
    def test_iterable_source(self, db, q):
        with connect(list(db.vectors), backend="tree") as s:
            assert len(s) == len(db)

    def test_disk_roundtrip_and_any_backend_on_a_path(self, tmp_path, db, q):
        path = str(tmp_path / "idx.gauss")
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        answers = {}
        for backend in ("disk", "tree", "seqscan"):
            with connect(path, backend=backend) as s:
                answers[backend] = {
                    m.key for m in s.execute(MLIQ(q, 5)).matches
                }
        assert answers["disk"] == answers["tree"] == answers["seqscan"]

    def test_auto_picks_disk_for_paths_tree_for_data(self, tmp_path, db):
        path = str(tmp_path / "idx.gauss")
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        with connect(path) as s:
            assert s.backend_name == "disk"
        with connect(db) as s:
            assert s.backend_name == "tree"

    def test_disk_needs_a_path(self, db):
        with pytest.raises(TypeError):
            connect(db, backend="disk")

    def test_unknown_backend(self, db):
        with pytest.raises(ValueError, match="unknown backend"):
            connect(db, backend="btree")

    def test_unknown_options_rejected_by_every_factory(self, db):
        for backend in ("tree", "seqscan", "xtree"):
            with pytest.raises(TypeError):
                connect(db, backend=backend, not_an_option=1)

    def test_read_only_open_rejects_auto_checkpoint(self, tmp_path, db):
        from repro.gausstree.tree import GaussTree

        path = str(tmp_path / "ro.gauss")
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        with pytest.raises(ValueError, match="writable"):
            GaussTree.open(path, auto_checkpoint_bytes=1 << 20)

    def test_writable_disk_session(self, tmp_path, db, q):
        path = str(tmp_path / "w.gauss")
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        with connect(path, writable=True, auto_checkpoint_bytes=1 << 20) as s:
            assert s.backend_name == "disk-writable" and s.writable
            v = PFV([0.5] * 3, [0.1] * 3, key="added")
            s.insert(v)
            assert s.delete(v) is True
            s.flush()
        with connect(path) as s:
            assert len(s) == len(db)

    def test_writable_rejected_on_read_only_backends(self, db):
        with pytest.raises(CapabilityError):
            connect(db, backend="seqscan", writable=True)
        with connect(db, backend="seqscan") as s:
            with pytest.raises(CapabilityError):
                s.insert(PFV([0.5] * 3, [0.1] * 3, key="x"))


class TestExplain:
    def test_plan_fields_and_describe(self, db, q):
        with connect(db, backend="seqscan") as s:
            plan = s.explain([MLIQ(q, 3)] * 4)
        assert plan.backend == "seqscan"
        assert plan.strategy == "batched"
        assert plan.n_queries == 4
        assert plan.estimated_pages > 0
        assert plan.estimated_io_seconds > 0
        text = plan.describe()
        assert "seqscan" in text and "page accesses" in text

    def test_estimate_tracks_costmodel(self, db, q):
        # The seqscan MLIQ estimate is exactly the cost model's price of
        # one sequential pass — the planner quotes storage/costmodel.
        with connect(db, backend="seqscan") as s:
            plan = s.explain(MLIQ(q, 3))
            backend = s._backend
            pages = backend.index.file_pages
            assert plan.estimated_pages == pages
            assert plan.estimated_io_seconds == pytest.approx(
                PAPER_TESTBED.sequential_read_seconds(pages)
            )

    @pytest.mark.parametrize("backend", ["tree", "disk"])
    def test_two_level_tree_estimate_is_the_sweep_that_runs(
        self, db, q, backend, tmp_path
    ):
        # A root over leaves answers every k-MLIQ with a sweep, so
        # explain() can price exactly what runs: every node page per
        # query, every row refined.
        tree = bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule)
        assert tree.height == 2
        source = tree
        if backend == "disk":
            source = str(tmp_path / "two-level.gauss")
            tree.save(source)
        specs = [MLIQ(q, 3), RankQuery(q, 2), MLIQ(q, 1)]
        with (connect(source) if backend == "disk" else session_for(tree)) as s:
            plan = s.explain(specs)
            rs = s.execute_many(specs)
        node_pages = sum(1 for _ in tree.nodes())
        assert plan.estimated_pages == rs.stats.pages_accessed
        assert plan.estimated_pages == node_pages * len(specs)
        assert rs.stats.swept == len(specs)
        assert rs.stats.objects_refined == len(db) * len(specs)
        assert plan.estimated_cpu_seconds == pytest.approx(
            PAPER_TESTBED.price(rs.stats, vectorized=True)[1]
        )
        assert any("sweeps the leaf stack" in note for note in plan.notes)

    @pytest.mark.parametrize("backend", ["tree", "disk"])
    def test_census_swept_tree_estimate_is_the_sweep_that_runs(
        self, backend, tmp_path
    ):
        # On a uniform three-level tree the leaf-hull census sends every
        # k-MLIQ at 1e-9 to the sweep; explain() asks the same census,
        # so it prices every node page and every row, and counts none.
        from repro.data.synthetic import uniform_pfv_dataset
        from repro.data.workload import identification_workload

        data = uniform_pfv_dataset(n=5000, d=8, seed=12)
        tree = bulk_load(data.vectors, sigma_rule=data.sigma_rule)
        assert tree.height == 3
        source = tree
        if backend == "disk":
            source = str(tmp_path / "three-level.gauss")
            tree.save(source)
        specs = [
            MLIQ(w.q, k)
            for w, k in zip(identification_workload(data, 3, seed=3), (5, 1, 3))
        ]
        with (connect(source) if backend == "disk" else session_for(tree)) as s:
            store = s._backend.store
            store.begin_query()
            plan = s.explain(specs)
            assert store.log.pages_accessed == 0
            rs = s.execute_many(specs)
        node_pages = sum(1 for _ in tree.nodes())
        assert rs.stats.swept == len(specs)
        assert rs.stats.nodes_expanded == len(specs)
        assert plan.estimated_pages == rs.stats.pages_accessed
        assert plan.estimated_pages == node_pages * len(specs)
        assert plan.estimated_cpu_seconds == pytest.approx(
            PAPER_TESTBED.price(rs.stats, vectorized=True)[1]
        )
        assert any(
            "leaf-hull census: every query sweeps the leaf stack" in note
            for note in plan.notes
        )

    def test_tight_clusters_explain_names_the_traversal(self):
        from repro.data.synthetic import clustered_pfv_dataset
        from repro.data.workload import identification_workload

        data = clustered_pfv_dataset(
            n=3000, d=10, cluster_std=0.02, sigma_low=0.003,
            sigma_high=0.01, seed=14,
        )
        tree = bulk_load(data.vectors, sigma_rule=data.sigma_rule)
        specs = [MLIQ(w.q, 5) for w in identification_workload(data, 4, seed=15)]
        s = session_for(tree)
        plan = s.explain(specs)
        rs = s.execute_many(specs)
        assert rs.stats.swept == 0
        assert plan.estimated_pages < sum(1 for _ in tree.nodes()) * len(specs)
        (note,) = [n for n in plan.notes if "traversal" in n]
        assert "sweep" not in note.split(";")[0]

    def test_explain_accepts_any_iterable_like_execute_many(self, db, q):
        with connect(db, backend="seqscan") as s:
            from_list = s.explain([MLIQ(q, 2), MLIQ(q, 3)])
            from_gen = s.explain(MLIQ(q, k) for k in (2, 3))
        assert from_gen == from_list

    def test_rank_lowering_is_reported(self, db, q):
        with connect(db, backend="tree") as s:
            plan = s.explain(RankQuery(q, 5, min_mass=0.9))
        assert any("rank" in step for step in plan.lowering)

    def test_approximate_backend_is_flagged(self, db, q):
        with connect(db, backend="xtree") as s:
            plan = s.explain(MLIQ(q, 3))
        assert any("approximate" in note for note in plan.notes)


@pytest.fixture(scope="module")
def explain_sources(tmp_path_factory):
    """Data set 1 at scale 0.05 (in memory and saved) with three of its
    workload queries, and four hash shards of data set 2 at scale 0.02
    with three of theirs."""
    from repro.cluster.partition import build_shards
    from repro.data.workload import identification_workload
    from repro.eval.figures import dataset1, dataset2

    directory = tmp_path_factory.mktemp("explain")
    ds1 = dataset1(scale=0.05)
    path = str(directory / "ds1.gauss")
    bulk_load(ds1.vectors, sigma_rule=ds1.sigma_rule).save(path)
    ds2 = dataset2(scale=0.02)
    manifest = build_shards(ds2, 4, directory / "ds2")
    return {
        "ds1": ds1,
        "ds1.gauss": path,
        "ds1 queries": [w.q for w in identification_workload(ds1, 3, seed=1)],
        "ds2.shards": manifest.source_path,
        "ds2 queries": [w.q for w in identification_workload(ds2, 3, seed=1)],
    }


class TestExplainEstimates:
    """The ``estimate:`` line of ``explain()`` on every backend, as
    printed: the page guesses and their prices on the 2006 testbed."""

    @pytest.mark.parametrize(
        "backend, spec, n_queries, estimate",
        [
            ("tree", "MLIQ", 3, "~114 page accesses, ~1402.9 ms modeled IO, "
             "~13.0 ms modeled CPU"),
            ("tree", "TIQ", 3, "~27 page accesses, ~332.3 ms modeled IO, "
             "~2.9 ms modeled CPU"),
            ("disk", "MLIQ", 1, "~38 page accesses, ~467.6 ms modeled IO, "
             "~4.3 ms modeled CPU"),
            ("disk rank-only", "MLIQ", 1, "~3 page accesses, ~36.9 ms "
             "modeled IO, ~0.3 ms modeled CPU"),
            ("disk", "TIQ", 3, "~27 page accesses, ~332.3 ms modeled IO, "
             "~2.9 ms modeled CPU"),
            ("seqscan", "MLIQ", 3, "~31 page accesses, ~16.4 ms modeled IO, "
             "~52.5 ms modeled CPU"),
            ("seqscan", "TIQ", 3, "~62 page accesses, ~32.8 ms modeled IO, "
             "~55.6 ms modeled CPU"),
            ("xtree", "MLIQ", 3, "~27 page accesses, ~332.3 ms modeled IO, "
             "~7.7 ms modeled CPU"),
            ("xtree", "TIQ", 3, "~27 page accesses, ~332.3 ms modeled IO, "
             "~7.7 ms modeled CPU"),
            ("sharded", "MLIQ", 3, "~204 page accesses, ~2512.5 ms modeled "
             "IO, ~26.4 ms modeled CPU"),
            ("sharded", "TIQ", 3, "~249 page accesses, ~3066.3 ms modeled "
             "IO, ~31.7 ms modeled CPU"),
        ],
    )
    def test_estimate_line(
        self, explain_sources, backend, spec, n_queries, estimate
    ):
        src = explain_sources
        if backend == "sharded":
            session = connect(src["ds2.shards"], backend="sharded")
            queries = src["ds2 queries"]
        else:
            queries = src["ds1 queries"]
            if backend == "disk":
                session = connect(src["ds1.gauss"])
            elif backend == "disk rank-only":
                session = connect(src["ds1.gauss"], mliq_tolerance=math.inf)
            else:
                session = connect(src["ds1"], backend=backend)
        specs = [
            MLIQ(q, 5) if spec == "MLIQ" else TIQ(q, 0.2)
            for q in queries[:n_queries]
        ]
        with session:
            lines = session.explain(specs).describe().splitlines()
        assert f"  estimate: {estimate}" in lines


class TestSessionLifecycle:
    def test_closed_session_refuses_work(self, db, q):
        s = connect(db, backend="seqscan")
        s.close()
        s.close()  # idempotent
        with pytest.raises(RuntimeError):
            s.execute(MLIQ(q, 1))

    def test_session_for_adopts_existing_indexes(self, db, q):
        tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
        scan = SequentialScanIndex(db)
        a = session_for(tree).execute(MLIQ(q, 5)).keys()
        b = session_for(scan).execute(MLIQ(q, 5)).keys()
        assert a == b

    def test_session_for_rejects_objects_it_cannot_adopt(self, q):
        from repro.data.workload import IdentificationQuery
        from repro.eval.runner import run_mliq_batch

        class DuckTyped:
            def mliq(self, query):
                return [], repro.QueryStats()

        adoptable = (
            "GaussTree",
            "SequentialScanIndex",
            "XTreePFVIndex",
            "BackendAdapter",
        )
        for stranger in (object(), DuckTyped()):
            with pytest.raises(TypeError) as excinfo:
                session_for(stranger)
            assert all(name in str(excinfo.value) for name in adoptable)
        workload = [IdentificationQuery(q=q, true_key=0)]
        with pytest.raises(TypeError):
            run_mliq_batch(object(), workload)

    def test_register_backend(self, db, q):
        calls = []

        def factory(source, *, writable, options):
            from repro.engine.backends import SeqScanBackend

            calls.append(options)
            backend = SeqScanBackend(SequentialScanIndex(db))
            backend.name = "recording"
            return backend

        register_backend("recording", factory, "test double", replace=True)
        with connect(db, backend="recording", marker=1) as s:
            assert s.backend_name == "recording"
            assert len(s.execute(MLIQ(q, 2)).matches) == 2
        assert calls == [{"marker": 1}]
        assert "recording" in available_backends()
        with pytest.raises(ValueError):
            register_backend("recording", factory)


class TestDeprecationShims:
    def test_engine_paths_emit_no_deprecation_warnings(self, db, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with connect(db, backend="tree") as s:
                s.execute_many([MLIQ(q, 3), TIQ(q, 0.1), RankQuery(q, 2)])
            with connect(db, backend="seqscan") as s:
                s.execute(MLIQ(q, 3))
            with connect(db, backend="xtree") as s:
                s.execute(MLIQ(q, 3))

    def test_top_level_exports(self):
        for name in ("connect", "Session", "MLIQ", "TIQ", "RankQuery"):
            assert hasattr(repro, name)


class TestEps:
    def test_tiq_eps_zero_is_exact_and_groups_do_not_leak(self, db, q):
        # A strict (eps=0) TIQ sharing a batch with a loose one must
        # still be answered exactly.
        with connect(db, backend="tree") as s:
            rs = s.execute_many([TIQ(q, 0.05, eps=0.0), TIQ(q, 0.05, eps=0.2)])
            exact = s.execute(TIQ(q, 0.05)).matches
        assert [m.key for m in rs[0]] == [m.key for m in exact]


class TestWriteSpecs:
    """Insert/Delete specs through execute_many: ordered runs, grouped
    inserts, capability gating."""

    def test_batch_order_is_read_your_writes(self, db, q):
        new = PFV(np.asarray(q.mu), np.full(3, 0.01), key="bullseye")
        with connect(db, backend="tree") as s:
            rs = s.execute_many(
                [
                    MLIQ(q, 3),          # before the insert: no bullseye
                    repro.Insert(new),
                    MLIQ(q, 3),          # after: bullseye dominates
                    repro.Delete(new),
                    MLIQ(q, 3),          # gone again
                ]
            )
            assert len(s) == len(db)
        assert rs[1] == [] and rs[3] == []  # write slots answer empty
        assert "bullseye" not in [m.key for m in rs[0]]
        assert [m.key for m in rs[2]][0] == "bullseye"
        assert [m.key for m in rs[4]] == [m.key for m in rs[0]]

    def test_consecutive_inserts_group_through_insert_many(self, db):
        calls = []

        class Probe(repro.engine.BackendAdapter):
            name = "probe"
            capabilities = frozenset({"mliq", "writable"})

            def run_mliq(self, specs):
                calls.append(("mliq", len(specs)))
                return [[] for _ in specs], repro.QueryStats()

            def count(self):
                return 5

            def insert(self, v):
                calls.append(("insert", 1))

            def insert_many(self, vectors):
                vectors = list(vectors)
                calls.append(("insert_many", len(vectors)))
                return len(vectors)

            def delete(self, v):
                calls.append(("delete", 1))
                return True

        q = make_random_query(d=3, seed=77)
        vs = [make_random_query(d=3, seed=100 + i) for i in range(4)]
        session = session_for(Probe())
        session.execute_many(
            [
                repro.Insert(vs[0]),
                repro.Insert(vs[1]),
                repro.Insert(vs[2]),   # one grouped run of 3
                MLIQ(q, 2),
                repro.Delete(vs[0]),
                repro.Insert(vs[3]),   # delete splits the runs
            ]
        )
        assert calls == [
            ("insert_many", 3),
            ("mliq", 1),
            ("delete", 1),
            ("insert_many", 1),
        ]

    def test_write_specs_rejected_without_capability(self, db, q):
        with connect(db, backend="seqscan") as s:
            with pytest.raises(CapabilityError):
                s.execute(repro.Insert(q))
            with pytest.raises(CapabilityError):
                s.execute_many([MLIQ(q, 1), repro.Delete(q)])

    def test_explain_rejects_write_specs(self, db, q):
        with connect(db, backend="tree") as s:
            with pytest.raises(TypeError, match="no plan"):
                s.explain(repro.Insert(q))

    def test_session_insert_many_on_disk_is_group_committed(
        self, tmp_path, db, q
    ):
        from repro.storage.wal import WriteAheadLog

        path = str(tmp_path / "w.gauss")
        bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)
        fresh = [
            PFV(np.asarray(q.mu) + 0.01 * i, np.asarray(q.sigma), key=("f", i))
            for i in range(10)
        ]
        with connect(path, backend="disk", writable=True) as s:
            assert s.insert_many(fresh) == 10
            # One transaction sealed the whole batch.
            assert len(WriteAheadLog.scan(path + ".wal")) == 1
            assert len(s) == len(db) + 10
        with connect(path) as s:
            assert len(s) == len(db) + 10
