"""ShardedBackend: global merge correctness, fan-out stats, hardening.

The parity property in ``tests/engine/test_parity.py`` already proves
sharded answers equal the single-backend ones on random workloads; this
file pins the *mechanisms* — the cross-shard Bayes denominator (a shard
with no threshold answers still shifts everyone's posterior), the
per-shard stats/provenance accounting, the fan-out cost pricing — and
the failure modes: a manifest pointing at missing shard files, a shard
that cannot open and a shard task that raises must all surface as a
prompt :class:`ClusterError`, never a hang.
"""

import math
import os

import pytest

from repro.cluster import ClusterError, SerialPool
from repro.cluster.partition import build_shards
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.engine import (
    MLIQ,
    TIQ,
    CapabilityError,
    ConsensusTopK,
    RankQuery,
    connect,
)
from repro.gausstree.node import LeafNode
from repro.gausstree.persist import read_header
from repro.gausstree.tree import GaussTree

from tests.conftest import make_random_db, make_random_query


# ---------------------------------------------------------------------------
# Merge correctness mechanisms
# ---------------------------------------------------------------------------


def test_tiq_counts_mass_of_shards_with_empty_answer_sets():
    """The global Bayes denominator spans shards that return *nothing*.

    Two identical-density objects answer a centred query; round-robin
    over two shards isolates them, so each shard alone would report its
    object at local posterior ~1.0 — naive merging would answer both at
    tau=0.9. Correct renormalisation halves the posteriors to ~0.5 and
    rejects both.
    """
    db = PFVDatabase(
        [
            PFV([0.0], [0.5], key="left"),
            PFV([1.0], [0.5], key="right"),
        ]
    )
    q = PFV([0.5], [0.5])  # equidistant: posteriors are exactly 1/2
    spec = TIQ(q, tau=0.9)
    with connect(db, backend="sharded", shards=2, policy="round-robin") as s:
        rs = s.execute(spec)
        assert rs.matches == []
        # At tau=0.4 both come back, each with the *global* posterior.
        both = s.execute(TIQ(q, tau=0.4)).matches
    assert sorted(m.key for m in both) == ["left", "right"]
    for m in both:
        assert m.probability == pytest.approx(0.5, abs=1e-12)


def test_mliq_posteriors_renormalise_across_shards():
    db = make_random_db(n=40, seed=8)
    q = make_random_query(seed=9)
    with connect(db, backend="tree") as ref:
        expected = {
            m.key: m.probability for m in ref.execute(MLIQ(q, 10)).matches
        }
    with connect(db, backend="sharded", shards=3) as s:
        got = {m.key: m.probability for m in s.execute(MLIQ(q, 10)).matches}
    assert set(got) == set(expected)
    for key, p in got.items():
        assert p == pytest.approx(expected[key], abs=1e-9)
    # Posterior mass over ALL stored objects sums to 1, so a k=n answer
    # carries the full mass — only true if Z spans every shard.
    with connect(db, backend="sharded", shards=3) as s:
        full = s.execute(MLIQ(q, len(db))).matches
    assert sum(m.probability for m in full) == pytest.approx(1.0, abs=1e-9)


def test_rank_min_mass_cut_applies_to_global_posteriors():
    db = make_random_db(n=30, seed=12)
    q = make_random_query(seed=13)
    with connect(db, backend="tree") as ref:
        expected = ref.execute(RankQuery(q, 20, min_mass=0.95)).matches
    with connect(db, backend="sharded", shards=3) as s:
        got = s.execute(RankQuery(q, 20, min_mass=0.95)).matches
    assert [m.key for m in got] == [m.key for m in expected]


def test_edge_cases_match_engine_semantics():
    db = make_random_db(n=5, seed=2)
    q = make_random_query(seed=3)
    with connect(db, backend="sharded", shards=3) as s:
        assert s.execute(MLIQ(q, 0)).matches == []
        assert len(s.execute(MLIQ(q, 99)).matches) == 5
    empty = PFVDatabase()
    with connect(empty, backend="sharded", shards=2) as s:
        assert len(s) == 0
        assert s.execute(MLIQ(q, 3)).matches == []
        assert s.execute(TIQ(q, 0.5)).matches == []


def test_merged_stats_sum_shards_and_provenance_breaks_them_down():
    db = make_random_db(n=60, seed=5)
    q = make_random_query(seed=6)
    with connect(db, backend="sharded", shards=3) as s:
        rs = s.execute_many([MLIQ(q, 4), TIQ(q, 0.2)])
    # One provenance entry per active shard per executed kind-batch.
    assert len(rs.provenance) == 6
    assert all(name.startswith("shard-") for name, _ in rs.provenance)
    assert rs.stats.pages_accessed == sum(
        st.pages_accessed for _, st in rs.provenance
    )
    assert rs.stats.objects_refined == sum(
        st.objects_refined for _, st in rs.provenance
    )
    # Single-backend sessions attach no provenance.
    with connect(db, backend="tree") as plain:
        assert plain.execute(MLIQ(q, 2)).provenance == ()


def test_failed_batch_does_not_leak_provenance_into_the_next():
    """A kind-group that fails after an earlier group succeeded must
    discard the partial per-shard breakdown (regression: stale entries
    double-counted shards in the next ResultSet)."""
    db = make_random_db(n=20, seed=61)
    q = make_random_query(seed=62)
    with connect(db, backend="sharded", shards=2) as s:
        backend = s._backend
        real_run_tiq = backend.run_tiq

        def failing_run_tiq(specs):
            raise ClusterError("injected tiq failure")

        backend.run_tiq = failing_run_tiq
        with pytest.raises(ClusterError, match="injected"):
            # mliq group executes (and records provenance) first.
            s.execute_many([MLIQ(q, 2), TIQ(q, 0.2)])
        backend.run_tiq = real_run_tiq
        rs = s.execute(MLIQ(q, 2))
    # Exactly one entry per shard for this batch, none from the failure.
    assert len(rs.provenance) == 2


def test_manifest_source_rejects_repartition_options(tmp_path):
    db = make_random_db(n=12, seed=63)
    manifest = build_shards(db, 2, tmp_path / "fixed")
    with pytest.raises(TypeError, match="conflict with a manifest"):
        connect(manifest.source_path, backend="sharded", shards=4)
    with pytest.raises(TypeError, match="conflict with a manifest"):
        connect(
            manifest.source_path, backend="sharded", policy="round-robin"
        )


def test_sharded_declares_capabilities_and_gates_writes():
    db = make_random_db(n=12)
    # Read-only (the default) still refuses writes...
    with connect(db, backend="sharded", shards=2) as s:
        assert {"mliq", "tiq", "batch", "exact"} <= s.capabilities
        assert not s.writable
        with pytest.raises(CapabilityError):
            s.insert(PFV([0.1, 0.1, 0.1], [0.1, 0.1, 0.1], key="new"))
    # ...while writable=True arms the placement-routed write surface.
    with connect(db, backend="sharded", shards=2, writable=True) as s:
        assert "writable" in s.capabilities
        s.insert(PFV([0.1, 0.1, 0.1], [0.1, 0.1, 0.1], key="new"))
        assert len(s) == 13


def test_sharded_over_xtree_inner_is_not_exact():
    db = make_random_db(n=25)
    with connect(db, backend="sharded", shards=2, inner="xtree") as s:
        assert "exact" not in s.capabilities


def test_estimate_prices_the_serial_fan_out_as_a_sum(tmp_path):
    db = make_random_db(n=80, seed=21)
    manifest = build_shards(db, 4, tmp_path / "est")
    specs = [MLIQ(make_random_query(seed=22), 5)] * 8
    with connect(manifest.source_path, backend="sharded") as session:
        plan = session.explain(specs)
        backend = session._backend
        shard_io = [
            backend._pool.session(i)._backend.estimate("mliq", specs)
            .io_seconds
            for i in backend._active
        ]
        cost_model = backend._pool.session(0)._backend.store.cost_model
    assert len(shard_io) == 4
    assert plan.estimated_io_seconds == pytest.approx(
        sum(shard_io) + 4 * cost_model.fanout_dispatch_seconds, rel=1e-12
    )
    assert any(
        "fan-out" in step and "serial fan-out" in step
        for step in plan.lowering
    )


# ---------------------------------------------------------------------------
# Option validation
# ---------------------------------------------------------------------------


def test_in_memory_source_requires_shard_count():
    db = make_random_db(n=6)
    with pytest.raises(TypeError, match="shards=N"):
        connect(db, backend="sharded")


@pytest.mark.parametrize(
    "option", [{"replicas": 3}, {"pool": "process"}, {"workers": 2}]
)
def test_unknown_options_rejected(option):
    db = make_random_db(n=6)
    (name,) = option
    with pytest.raises(TypeError, match=f"does not understand.*{name}"):
        connect(db, backend="sharded", shards=2, **option)


def test_disk_inner_requires_manifest():
    db = make_random_db(n=6)
    with pytest.raises(TypeError, match="shard-build"):
        connect(db, backend="sharded", shards=2, inner="disk")


# ---------------------------------------------------------------------------
# Hardening: broken manifests and failing shards
# ---------------------------------------------------------------------------


def test_manifest_with_missing_shard_file_fails_loudly(tmp_path):
    db = make_random_db(n=30, seed=7)
    manifest = build_shards(db, 3, tmp_path / "broken")
    victim = [p for p in manifest.shard_paths() if p is not None][1]
    os.remove(victim)
    with pytest.raises(ClusterError, match="missing index file"):
        connect(manifest.source_path, backend="sharded")
    # The error names the exact file so operators can fix it.
    with pytest.raises(ClusterError, match=os.path.basename(victim)):
        connect(manifest.source_path, backend="sharded")


def test_shard_unopenable_at_query_time_fails_loudly(tmp_path):
    """A shard that passes the existence check but cannot be *opened*
    (truncated/corrupt file) surfaces as ClusterError, not a hang."""
    db = make_random_db(n=30, seed=17)
    manifest = build_shards(db, 2, tmp_path / "corrupt")
    victim = [p for p in manifest.shard_paths() if p is not None][0]
    with open(victim, "wb") as f:
        f.write(b"\x00" * 64)
    session = connect(manifest.source_path, backend="sharded")
    with pytest.raises(ClusterError, match="cannot open shard"):
        session.execute(MLIQ(make_random_query(), 3))
    session.close()


class _Boom:
    def __call__(self, shard_id):
        raise RuntimeError("shard backend exploded")


def _echo_runner(session, payload):
    return (session, payload)


def test_serial_pool_wraps_worker_exceptions():
    pool = SerialPool(_Boom(), _echo_runner)
    with pytest.raises(ClusterError, match="cannot open shard 0"):
        pool.run([(0, "payload")])
    pool.close()
    with pytest.raises(ClusterError, match="closed"):
        pool.run([(0, "payload")])


def test_serial_pool_wraps_runner_exceptions_and_keeps_serving():
    """A shard task that raises surfaces as a ClusterError naming the
    shard and chaining the cause; the cached sessions answer the next
    batch without reopening."""
    opened = []

    def opener(shard_id):
        opened.append(shard_id)
        return f"session-{shard_id}"

    def runner(session, payload):
        if payload == "boom":
            raise ValueError("shard task exploded")
        return (session, payload)

    pool = SerialPool(opener, runner)
    with pytest.raises(
        ClusterError,
        match="shard 1 failed executing its batch: shard task exploded",
    ) as info:
        pool.run([(0, "ok"), (1, "boom")])
    assert info.value.shard == "1"
    assert info.value.attempts == 1
    assert isinstance(info.value.__cause__, ValueError)
    assert pool.run([(0, "ok"), (1, "ok")]) == [
        ("session-0", "ok"),
        ("session-1", "ok"),
    ]
    assert opened == [0, 1]
    pool.close()


def _two_level_shards(tmp_path, n_shards, rows_per_shard, seed):
    """Hash-placed disk shards on 1 KiB pages (at most 18 rows of 3-d
    per leaf), so every shard tree is a root over its leaves and answers
    every k-MLIQ with a sweep. Returns the database, the manifest and
    each shard's node pages."""
    db = make_random_db(n=n_shards * rows_per_shard, seed=seed)
    manifest = build_shards(
        db, n_shards, tmp_path / "two-level", page_size=1024
    )
    node_pages = []
    for path in manifest.shard_paths():
        tree = GaussTree.open(path)
        assert tree.height == 2, (path, tree.height)
        tree.close()
        node_pages.append(read_header(path)["page_count"])
    return db, manifest, node_pages


def _bits(rs):
    return [
        [(m.key, m.log_density, m.probability, m.score) for m in matches]
        for matches in rs
    ]


def test_two_level_disk_shards_match_the_scan(tmp_path):
    # Every spec sweeps every shard once (the TIQ through its probe);
    # the merge carries the scan's keys and posteriors, and a second
    # batch through the warm shard sessions repeats the first bit for
    # bit.
    db, manifest, _ = _two_level_shards(tmp_path, 3, 60, seed=33)
    qs = [PFV(db[i].mu, db[i].sigma) for i in (3, 50, 99, 140, 171)]
    specs = [
        MLIQ(qs[0], 1),
        MLIQ(qs[1], 3),
        MLIQ(qs[2], 5),
        TIQ(qs[3], 0.05),
        RankQuery(qs[4], 6, min_mass=0.9),
        ConsensusTopK(qs[0], 4),
    ]
    with connect(db, backend="seqscan") as ref:
        expected = ref.execute_many(specs)
    with connect(manifest.source_path, backend="sharded") as session:
        got = session.execute_many(specs)
        again = session.execute_many(specs)
    assert got.stats.swept == 3 * len(specs)
    assert all(expected), "every spec must have answers to compare"
    for spec, matches, want in zip(specs, got, expected):
        assert [m.key for m in matches] == [m.key for m in want], spec
        for g, w in zip(matches, want):
            assert math.isclose(
                g.probability, w.probability, rel_tol=0.0, abs_tol=1e-9
            ), spec
            if w.score is not None:
                assert math.isclose(
                    g.score, w.score, rel_tol=0.0, abs_tol=1e-9
                ), spec
    assert _bits(again) == _bits(got)


def test_merge_builds_a_pfv_only_for_the_returned_matches(
    tmp_path, monkeypatch
):
    # 16 MLIQ(q, 5) over 8 two-level shards: each shard answers its top
    # 5 per query (640 candidates), the coordinator returns 80 matches
    # and builds those alone.
    _, manifest, _ = _two_level_shards(tmp_path, 8, 60, seed=35)
    specs = [MLIQ(make_random_query(seed=200 + i), 5) for i in range(16)]
    builds = []
    entry_at = LeafNode.entry_at

    def counting_entry_at(leaf, index):
        builds.append(index)
        return entry_at(leaf, index)

    with connect(manifest.source_path, backend="sharded") as session:
        session.execute(specs[0])  # open every shard first
        monkeypatch.setattr(LeafNode, "entry_at", counting_entry_at)
        rs = session.execute_many(specs)
    assert sum(len(matches) for matches in rs) == 80
    assert rs.stats.swept == 8 * len(specs)
    assert len(builds) == 80


def test_tiq_estimate_prices_the_denominator_probes(tmp_path):
    # A sharded TIQ adds an MLIQ(q, 1) probe per query on every shard,
    # and on a two-level shard that probe reads every node page.
    db, manifest, node_pages = _two_level_shards(tmp_path, 4, 60, seed=37)
    specs = [TIQ(PFV(db[i].mu, db[i].sigma), 0.2) for i in (5, 60, 130, 200)]
    with connect(manifest.source_path, backend="sharded") as session:
        plan = session.explain(specs)
        rs = session.execute_many(specs)
    probe_pages = sum(node_pages) * len(specs)
    assert rs.stats.swept == 4 * len(specs)
    assert rs.stats.pages_accessed >= probe_pages
    assert plan.estimated_pages >= probe_pages


def test_serial_pool_shares_sessions_with_metadata():
    db = make_random_db(n=20, seed=41)
    session = connect(db, backend="sharded", shards=2)
    backend = session._backend
    assert isinstance(backend._pool, SerialPool)
    session.execute(MLIQ(make_random_query(seed=42), 3))
    materialised = session.database()
    assert len(materialised) == len(db)
    assert math.isclose(
        sum(1 for _ in materialised), len(db)
    )
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.execute(MLIQ(make_random_query(), 1))


# ---------------------------------------------------------------------------
# The write router (writable sharded sessions)
# ---------------------------------------------------------------------------


def _count_map(manifest_path):
    from repro.cluster import load_manifest

    m = load_manifest(manifest_path)
    return [s.objects for s in m.shards], m.effective_placement_epoch


def test_hash_routed_insert_lands_on_its_owning_shard(tmp_path):
    from repro.cluster import load_manifest, shard_of

    db = make_random_db(n=24, seed=60)
    manifest = build_shards(db, 3, str(tmp_path / "w"), policy="hash")
    new = PFV([0.4, 0.4, 0.4], [0.1, 0.1, 0.1], key="routed")
    owner = shard_of(new, 0, 3, "hash")
    before = [s.objects for s in manifest.shards]
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert(new)
        after, _ = _count_map(manifest.source_path)
        assert after[owner] == before[owner] + 1
        assert sum(after) == sum(before) + 1
        # The hash names the shard for the delete too: one probe.
        assert s.delete(new)
        assert not s.delete(new)
    final, _ = _count_map(manifest.source_path)
    assert final == before


def test_round_robin_routing_continues_from_the_recorded_epoch(tmp_path):
    db = make_random_db(n=10, seed=61)
    manifest = build_shards(
        db, 3, str(tmp_path / "rr"), policy="round-robin"
    )
    assert manifest.effective_placement_epoch == 10
    fresh = [
        PFV([0.2 * i, 0.3, 0.4], [0.1, 0.1, 0.1], key=("rr", i))
        for i in range(6)
    ]
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert_many(fresh)  # positions 10..15 -> shards 1,2,0,1,2,0
    counts, epoch = _count_map(manifest.source_path)
    assert epoch == 16
    # 10 objects round-robined over 3 shards gave [4, 3, 3]; positions
    # 10..15 add exactly two per shard.
    assert counts == [6, 5, 5]
    # A second writable session keeps counting where the first stopped.
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert(PFV([0.5, 0.5, 0.5], [0.1, 0.1, 0.1], key="pos16"))
    counts, epoch = _count_map(manifest.source_path)
    assert epoch == 17
    assert counts == [6, 6, 5]  # position 16 -> shard 1


def test_round_robin_delete_probes_until_found(tmp_path):
    db = make_random_db(n=12, seed=62)
    manifest = build_shards(
        db, 3, str(tmp_path / "rd"), policy="round-robin"
    )
    victim = list(db)[7]
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        assert s.delete(victim)
        assert not s.delete(victim)
        assert len(s) == 11


def _shard_wal_sizes(manifest):
    """Per-shard WAL file size (None = no WAL file on disk)."""
    base = os.path.dirname(os.path.abspath(manifest.source_path))
    sizes = {}
    for info in manifest.shards:
        if info.path is None:
            continue
        wal = os.path.join(base, info.path) + ".wal"
        sizes[wal] = (
            os.path.getsize(wal) if os.path.exists(wal) else None
        )
    return sizes


@pytest.mark.parametrize("policy", ["hash", "round-robin"])
def test_delete_of_absent_key_is_a_clean_not_found(tmp_path, policy):
    """Regression: deleting a key present on *no* shard must answer
    ``False`` — not raise :class:`ClusterError` — and commit nothing:
    shard WALs untouched, manifest counts and epoch unchanged."""
    db = make_random_db(n=12, seed=66)
    manifest = build_shards(
        db, 3, str(tmp_path / f"abs-{policy}"), policy=policy
    )
    ghost = PFV([0.9, 0.8, 0.7], [0.1, 0.1, 0.1], key="never-inserted")
    before_counts, before_epoch = _count_map(manifest.source_path)
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        assert s.delete(ghost) is False
        assert len(s) == 12
        # The probes opened writable shard sessions (which materialize
        # empty WAL headers); the *miss itself* must append nothing —
        # a second miss leaves every WAL at exactly the same size.
        baseline_wals = _shard_wal_sizes(manifest)
        assert s.delete(ghost) is False
        assert _shard_wal_sizes(manifest) == baseline_wals
        # ... and no manifest refresh happened for either miss.
        assert _count_map(manifest.source_path) == (
            before_counts,
            before_epoch,
        )
        # The session stays fully usable after the miss.
        assert s.delete(list(db)[3]) is True
        assert len(s) == 11


def test_delete_skips_pathless_shards_instead_of_raising():
    """Regression: a shard marked active but with no materialized source
    (the state a stale count for a never-written shard leaves behind)
    must not fail an absent-key delete with ClusterError — the probe
    skips it and answers a clean not-found. ``connect`` validates
    manifests up front, so the state is doctored in-session, exactly
    where the probe loop would otherwise route through
    ``_writable_session`` and raise."""
    db = make_random_db(n=8, seed=67)
    with connect(
        db,
        backend="sharded",
        shards=3,
        inner="tree",
        policy="round-robin",
        writable=True,
    ) as s:
        backend = s._backend
        assert backend._counts[2] > 0  # round-robin fills every shard
        backend._sources[2] = None  # stale manifest: count, no file
        ghost = PFV([0.9, 0.8, 0.7], [0.1, 0.1, 0.1], key="never-inserted")
        assert s.delete(ghost) is False


def test_writable_writes_survive_crashless_close_and_reopen(tmp_path):
    db = make_random_db(n=18, seed=63)
    manifest = build_shards(db, 2, str(tmp_path / "dur"))
    fresh = [
        PFV([0.3, 0.3, 0.3 + 0.01 * i], [0.1, 0.1, 0.1], key=("d", i))
        for i in range(5)
    ]
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert_many(fresh)
        live = {m.key for m in s.execute(MLIQ(fresh[0], 23)).matches}
        assert {("d", i) for i in range(5)} <= live
    # Close checkpointed every shard; a read-only reopen serves them.
    with connect(manifest.source_path, backend="sharded") as s:
        assert len(s) == 23
        again = {m.key for m in s.execute(MLIQ(fresh[0], 23)).matches}
    assert again == live


def test_insert_into_hash_empty_shard_activates_it():
    # 2 objects over 3 shards leaves at least one shard empty; inserts
    # that the hash owns to an empty in-memory shard must activate it.
    db = PFVDatabase(
        [PFV([0.1 * i, 0.2], [0.1, 0.1], key=i) for i in range(2)]
    )
    with connect(
        db, backend="sharded", shards=3, inner="tree", writable=True
    ) as s:
        for i in range(12):
            s.insert(PFV([0.05 * i, 0.4], [0.1, 0.1], key=("fill", i)))
        assert len(s) == 14
        rs = s.execute(MLIQ(PFV([0.2, 0.3], [0.1, 0.1]), 14))
        assert len(rs.matches) == 14


def test_writable_sharded_session_rejects_pool_options(tmp_path):
    # The fan-out is serial on both sides of the write router: the
    # writable factory path refuses the old pool options like any other
    # unknown option.
    db = make_random_db(n=10, seed=64)
    manifest = build_shards(db, 2, str(tmp_path / "pp"))
    for option in ({"pool": "process"}, {"workers": 2}):
        with pytest.raises(TypeError, match="does not understand"):
            connect(
                manifest.source_path,
                backend="sharded",
                writable=True,
                **option,
            )


def test_writable_seqscan_inner_fails_loudly():
    db = make_random_db(n=10, seed=65)
    with connect(
        db, backend="sharded", shards=2, inner="seqscan", writable=True
    ) as s:
        with pytest.raises(ClusterError, match="not .*writable|writable"):
            s.insert(PFV([0.1, 0.1, 0.1], [0.1, 0.1, 0.1], key="x"))


def test_writable_open_trusts_shard_indexes_over_stale_manifest(tmp_path):
    """A crashed writer leaves manifest counts stale; the writable open
    must re-count from the recovered shard indexes."""
    import json

    db = make_random_db(n=12, seed=66)
    manifest = build_shards(db, 2, str(tmp_path / "stale"))
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert_many(
            [
                PFV([0.3, 0.3, 0.3], [0.1, 0.1, 0.1], key=("s", i))
                for i in range(4)
            ]
        )
    # Sabotage: rewrite the manifest with the pre-insert counts.
    with open(manifest.source_path) as f:
        doc = json.load(f)
    doc["shards"] = [
        {"path": s["path"], "objects": max(0, s["objects"] - 2)}
        for s in doc["shards"]
    ]
    with open(manifest.source_path, "w") as f:
        json.dump(doc, f)
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        assert len(s) == 16  # the indexes know better
    _, epoch = _count_map(manifest.source_path)
    assert epoch >= 16


def test_empty_shard_gets_index_lazily_on_first_write(tmp_path):
    """A shard that was empty at build time (``path=None`` in the
    manifest) materializes its index file on the first routed write —
    named as ``build_shards`` would have named it — instead of
    rejecting the batch."""
    import json

    db = PFVDatabase(
        [PFV([0.2] * 3, [0.1] * 3, key=0), PFV([0.8] * 3, [0.1] * 3, key=1)]
    )
    manifest = build_shards(
        db, 4, str(tmp_path / "lazy"), policy="round-robin"
    )
    assert [s.path for s in manifest.shards].count(None) == 2
    with connect(manifest.source_path, backend="sharded", writable=True) as s:
        s.insert_many(
            [PFV([0.5] * 3, [0.1] * 3, key=k) for k in range(2, 10)]
        )
        assert len(s) == 10
        rs = s.execute(MLIQ(PFV([0.5] * 3, [0.1] * 3), 10))
        assert len(rs.matches) == 10
    with open(manifest.source_path) as f:
        doc = json.load(f)
    paths = [sh["path"] for sh in doc["shards"]]
    assert None not in paths
    assert paths[2] == "lazy.shard-02.gauss"
    for path in paths:
        assert (tmp_path / path).exists()
    # Round-robin over 4 shards: 10 sequential positions -> 3/3/2/2.
    assert [sh["objects"] for sh in doc["shards"]] == [3, 3, 2, 2]
    # The deployment reopens like any fully-populated one.
    with connect(manifest.source_path, backend="sharded") as s:
        assert len(s) == 10
