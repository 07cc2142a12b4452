"""Elasticity: WAL shipping, replica failover and online re-sharding.

The PR-7 contract, pinned end to end:

* **Shipping** — a replica is always a durable *committed prefix* of its
  primary: :func:`~repro.storage.ship.create_replica` clones, an
  incremental :meth:`~repro.storage.ship.WALShipper.ship` forwards only
  newly committed WAL bytes (applied through the ordinary recovery
  path), and a primary checkpoint the shipper was not told about forces
  a full resync instead of corrupting the replica.
* **Failover** — a lost replica file costs a retry on the shard's next
  replica (or its primary), not the batch: a 64-query MLIQ batch
  answered with one replica file gone is *bit-identical* to the
  fault-free run, and the retry runs at once.
* **Re-sharding** — ``reshard`` rebuilds the deployment at a new shard
  count beside the old generation and cuts over via one atomic manifest
  replace; queries running throughout never see a wrong or partial
  answer.
* **The property** — a random interleaved write+query workload with
  injected shard-task failures and replica failovers answers within
  1e-9 of a single in-memory tree over the same objects.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterError, load_manifest, reshard
from repro.cluster.backend import ShardedBackend, _run_shard_payload
from repro.cluster.partition import build_shards
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery
from repro.engine import MLIQ, ConsensusTopK, ExpectedRank, connect
from repro.engine.session import Session
from repro.gausstree import gausstree_mliq
from repro.gausstree.tree import GaussTree
from repro.obs.metrics import counter
from repro.storage.ship import WALShipper, create_replica, replica_path
from repro.storage.wal import WAL_MAGIC, WriteAheadLog

from tests.conftest import make_random_db, make_random_query


# ---------------------------------------------------------------------------
# WAL shipping units
# ---------------------------------------------------------------------------


def _saved_tree(path, vectors, d=3):
    tree = GaussTree(dims=d, degree=3)
    tree.extend(vectors)
    tree.save(path)
    return tree


def _keys(path):
    tree = GaussTree.open(path)
    try:
        return sorted((v.key for v in tree), key=repr)
    finally:
        tree.close()


def test_committed_length_tracks_commits_not_torn_tails(tmp_path):
    path = str(tmp_path / "cl.gauss")
    db = make_random_db(n=10, seed=80)
    _saved_tree(path, list(db))
    wal_file = path + ".wal"
    assert WriteAheadLog.committed_length(wal_file) == len(WAL_MAGIC)

    writer = GaussTree.open(path, writable=True)
    try:
        writer.insert(PFV([0.5] * 3, [0.1] * 3, key="one"))
        committed = WriteAheadLog.committed_length(wal_file)
        assert committed == os.path.getsize(wal_file) > len(WAL_MAGIC)
        # A torn record appended behind the last COMMIT is not counted.
        with open(wal_file, "ab") as f:
            f.write(b"\x40\x00\x00\x00\x01torn")
        assert WriteAheadLog.committed_length(wal_file) == committed
    finally:
        writer.close(checkpoint=False)


def test_create_replica_clones_committed_state(tmp_path):
    path = str(tmp_path / "p.gauss")
    db = make_random_db(n=12, seed=81)
    _saved_tree(path, list(db))
    writer = GaussTree.open(path, writable=True)
    try:
        writer.insert_many(
            [PFV([0.3] * 3, [0.1] * 3, key=("w", i)) for i in range(4)]
        )
        # The primary's main file is stale (state rides in the WAL); the
        # replica must still come out current and self-contained.
        rp = create_replica(path, replica_path(path, 1))
        assert rp == path + ".r1"
        assert _keys(rp) == sorted(
            [v.key for v in db] + [("w", i) for i in range(4)], key=repr
        )
        # Replica WAL is drained: its main file alone serves the state.
        assert WriteAheadLog.scan(rp + ".wal") == []
    finally:
        writer.close(checkpoint=False)


def test_shipper_forwards_increments_and_resyncs_after_foreign_reset(
    tmp_path,
):
    path = str(tmp_path / "s.gauss")
    db = make_random_db(n=10, seed=82)
    _saved_tree(path, list(db))
    shipper = WALShipper(path, [replica_path(path, 1)])
    rp = replica_path(path, 1)
    assert _keys(rp) == sorted(v.key for v in db)

    writer = GaussTree.open(path, writable=True)
    try:
        writer.insert(PFV([0.2] * 3, [0.1] * 3, key="a"))
        assert shipper.ship() == 1
        assert "a" in _keys(rp)
        assert shipper.ship() == 0  # nothing newly committed: no-op

        writer.insert(PFV([0.4] * 3, [0.1] * 3, key="b"))
        assert shipper.ship() == 1
        assert {"a", "b"} <= set(_keys(rp))

        # A checkpoint the shipper was NOT told about resets the primary
        # WAL under it; the next ship detects offset > committed length
        # and falls back to a full resync instead of mis-applying.
        writer.insert(PFV([0.6] * 3, [0.1] * 3, key="c"))
        writer.flush()
        assert shipper.ship() == 1
        assert {"a", "b", "c"} <= set(_keys(rp))

        # note_reset: the owner shipped first, then checkpointed — the
        # replicas are logically current and the offsets restart cheaply.
        writer.insert(PFV([0.8] * 3, [0.1] * 3, key="d"))
        shipper.ship()
        writer.flush()
        shipper.note_reset()
        assert shipper.ship() == 0  # current, no resync copy
        assert {"a", "b", "c", "d"} <= set(_keys(rp))
    finally:
        writer.close(checkpoint=False)


def test_lost_replica_file_is_rebuilt_on_next_ship(tmp_path):
    path = str(tmp_path / "lost.gauss")
    db = make_random_db(n=8, seed=83)
    _saved_tree(path, list(db))
    rp = replica_path(path, 1)
    shipper = WALShipper(path, [rp])
    os.unlink(rp)
    assert shipper.ship() == 1  # full resync recreates the replica
    assert _keys(rp) == sorted(v.key for v in db)


# ---------------------------------------------------------------------------
# Failover: a lost replica file answers bit-identically
# ---------------------------------------------------------------------------


def _lost_replica_deployment(tmp_path):
    """Two shards with one replica each, 64 ``MLIQ(q, 5)`` queries and
    the fault-free answers; then shard 0's replica file is unlinked, so
    the next read-only session's first task on shard 0 cannot open."""
    db = make_random_db(n=60, seed=90)
    manifest = build_shards(db, 2, str(tmp_path / "lost"), replicas=1)
    specs = [MLIQ(make_random_query(seed=900 + i), 5) for i in range(64)]
    with connect(manifest.source_path, backend="sharded") as ref:
        expected = [list(matches) for matches in ref.execute_many(specs)]
    os.unlink(manifest.replica_paths()[0][0])
    return manifest, specs, expected


def test_lost_replica_answers_bit_identical(tmp_path):
    """Shard 0's read routes to its lost replica file: the retry lands
    on the shard's primary and the merged answers are bit-identical to
    the fault-free run — same keys, same probability and log-density
    floats — at exactly one retry and one failover for the batch. The
    session remembers the lost file and reads the primary from then on,
    so 11 more batches cost no further retry or failover."""
    manifest, specs, expected = _lost_replica_deployment(tmp_path)
    retries = counter("repro_cluster_retry_total")
    failovers = counter("repro_cluster_failover_total")
    retries_before, failovers_before = retries.value, failovers.value
    with connect(manifest.source_path, backend="sharded") as session:
        for _ in range(12):
            got = [list(matches) for matches in session.execute_many(specs)]
            assert retries.value - retries_before == 1
            assert failovers.value - failovers_before == 1
            assert len(got) == len(expected) == 64
            for exp, act in zip(expected, got):
                assert [m.key for m in exp] == [m.key for m in act]
                for a, b in zip(exp, act):
                    assert b.probability == a.probability  # bit-identical
                    assert b.log_density == a.log_density


def test_metadata_fails_over_from_a_lost_replica_file(tmp_path):
    """``database()`` before any query: shard 0's routed replica file is
    gone, so its metadata session falls to the primary in the failover
    order, as a fan-out's retry would, and every object is there."""
    manifest, _, _ = _lost_replica_deployment(tmp_path)
    with connect(manifest.source_path, backend="sharded") as session:
        assert len(session.database()) == 60
        assert set(session._backend._pool._sessions) == {(0, 0), (1, 1)}


def test_lost_replica_retries_without_sleeping(tmp_path, monkeypatch):
    """A failover retry goes to another file, so nothing transient needs
    waiting out: the batch must answer without ever sleeping."""
    manifest, specs, expected = _lost_replica_deployment(tmp_path)

    def no_sleep(seconds):
        raise AssertionError(f"the shard fan-out slept {seconds} s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    with connect(manifest.source_path, backend="sharded") as session:
        got = session.execute_many(specs)
    assert [[m.key for m in ms] for ms in got] == [
        [m.key for m in ms] for ms in expected
    ]


def test_replicaless_lost_shard_file_fails_loudly_without_retry(tmp_path):
    """Without replicas a lost shard file has no failover target: the
    batch fails at once with a ClusterError naming the shard, after one
    attempt and no retry."""
    db = make_random_db(n=30, seed=91)
    manifest = build_shards(db, 2, str(tmp_path / "noreplica"))
    retries = counter("repro_cluster_retry_total")
    failovers = counter("repro_cluster_failover_total")
    before = (retries.value, failovers.value)
    with connect(manifest.source_path, backend="sharded") as session:
        os.unlink(manifest.shard_paths()[0])
        with pytest.raises(ClusterError, match="cannot open shard 0") as info:
            session.execute(MLIQ(make_random_query(seed=92), 4))
    assert info.value.shard == "0"
    assert info.value.attempts == 1
    assert (retries.value, failovers.value) == before


def test_read_only_sessions_rotate_reads_across_replicas(tmp_path):
    db = make_random_db(n=20, seed=93)
    manifest = build_shards(db, 2, str(tmp_path / "rot"), replicas=2)
    with connect(manifest.source_path, backend="sharded") as s:
        backend = s._backend
        keys = {backend._task_key(i) for i in range(2)}
        assert keys == {(0, 1), (1, 1)}  # rotation 0: first replica
        backend._rotation += 1
        assert backend._task_key(0) == (0, 2)
        # Failover cycles replicas first, primary as the last resort.
        assert backend._failover_target((0, 1), 1) == (0, 2)
        assert backend._failover_target((0, 2), 2) == (0, 0)
        assert backend._failover_target((0, 0), 3) == (0, 1)
        # Queries through replica routing still answer correctly.
        q = make_random_query(seed=94)
        with connect(db, backend="tree") as ref:
            expected = {
                m.key: m.probability
                for m in ref.execute(MLIQ(q, 8)).matches
            }
        got = {m.key: m.probability for m in s.execute(MLIQ(q, 8)).matches}
        assert set(got) == set(expected)
        for key, p in got.items():
            assert p == pytest.approx(expected[key], abs=1e-9)


def test_writes_reach_replicas_without_a_checkpoint(tmp_path):
    """insert_many ships the committed WAL tail immediately: a fresh
    read-only session (which routes reads to replicas) sees the batch
    even though the primary was never flushed."""
    db = make_random_db(n=16, seed=95)
    manifest = build_shards(db, 2, str(tmp_path / "shipw"), replicas=1)
    fresh = [
        PFV([0.45, 0.45, 0.45 + 0.01 * i], [0.1] * 3, key=("live", i))
        for i in range(5)
    ]
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        writer.insert_many(fresh)
        with connect(manifest.source_path, backend="sharded") as reader:
            assert len(reader) == 21
            got = {
                m.key for m in reader.execute(MLIQ(fresh[0], 21)).matches
            }
            assert {("live", i) for i in range(5)} <= got
    finally:
        writer.close()


def test_ship_waits_for_a_reader_recovering_the_replica(tmp_path):
    """A read-only open that recovers a replica holds its index lock
    while it scans the replica's WAL and then resets it. A ship that
    lands in between must wait for the lock instead of appending a
    batch the reset then drops and counting it as shipped. The thread
    below stands in for such a reader: it holds the lock of every
    replica, resets their WALs after 0.3 s and releases."""
    from repro.gausstree.persist import _IndexLock

    db = make_random_db(n=16, seed=96)
    manifest = build_shards(db, 2, str(tmp_path / "race"), replicas=1)
    fresh = [
        PFV([0.1 * i, 0.45, 0.45], [0.1] * 3, key=("race", i))
        for i in range(8)
    ]
    pairs = [
        (primary, replicas[0])
        for primary, replicas in zip(
            manifest.shard_paths(), manifest.replica_paths()
        )
    ]
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        # Builds the shipper of the shard this lands on; a shard first
        # written below builds its shipper, a full resync, under the lock.
        writer.insert_many(fresh[:1])
        locks = [_IndexLock(replica) for _, replica in pairs]
        assert all(lock.acquire() for lock in locks)

        def recovering_reader():
            time.sleep(0.3)
            for (_, replica), lock in zip(pairs, locks):
                with open(replica + ".wal", "wb") as wal:
                    wal.write(WAL_MAGIC)
                lock.release()

        reader = threading.Thread(target=recovering_reader)
        reader.start()
        try:
            writer.insert_many(fresh[1:])
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        with connect(manifest.source_path, backend="sharded") as reader:
            assert len(reader) == len(db) + len(fresh)
    finally:
        writer.close()
    q = fresh[0]
    for primary, replica in pairs:
        with connect(primary) as want, connect(replica) as got:
            assert len(got) == len(want)
            assert [
                (m.key, m.probability) for m in got.execute(MLIQ(q, 30)).matches
            ] == [
                (m.key, m.probability)
                for m in want.execute(MLIQ(q, 30)).matches
            ]


def test_reader_metadata_reads_the_replicas_it_answers_from(tmp_path):
    """A read-only session with replicas answers from the replicas,
    which carry a live writer's 5 shipped inserts. ``database()``,
    ``explain()`` and ``cold_start()`` read the same replica sessions:
    ``database()`` holds the 21 objects the queries see, and no shard
    opens a second session."""
    db = make_random_db(n=16, seed=95)
    manifest = build_shards(db, 2, str(tmp_path / "meta"), replicas=1)
    fresh = [
        PFV([0.45, 0.45, 0.45 + 0.01 * i], [0.1] * 3, key=("live", i))
        for i in range(5)
    ]
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        writer.insert_many(fresh)
        with connect(manifest.source_path, backend="sharded") as reader:
            assert len(reader) == 21
            assert len(reader.execute(MLIQ(fresh[0], 30)).matches) == 21
            assert len(reader.database()) == 21
            reader.explain(MLIQ(fresh[0], 3))
            reader.cold_start()
            assert set(reader._backend._pool._sessions) == {(0, 1), (1, 1)}
    finally:
        writer.close()


def test_reader_counts_what_it_answers_beside_a_live_writer(tmp_path):
    """Without replicas a reader skips a live writer's WAL, so the
    writer's 5 uncheckpointed inserts are neither answered nor counted:
    ``len()`` is what the fan-out can return, before and after a
    query. Once the writer closes, a new reader counts them."""
    db = make_random_db(n=16, seed=95)
    manifest = build_shards(db, 2, str(tmp_path / "live"))
    fresh = [
        PFV([0.45, 0.45, 0.45 + 0.01 * i], [0.1] * 3, key=("live", i))
        for i in range(5)
    ]
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        writer.insert_many(fresh)
        with connect(manifest.source_path, backend="sharded") as reader:
            assert len(reader) == 16
            got = reader.execute(MLIQ(fresh[0], 30)).matches
            assert len(got) == 16
            assert len(reader) == 16
    finally:
        writer.close()
    with connect(manifest.source_path, backend="sharded") as reader:
        assert len(reader) == 21
        assert len(reader.execute(MLIQ(fresh[0], 30)).matches) == 21


def _run_killed_writer(
    manifest_path, statements: str, *, die_at_manifest_save: bool = False
) -> None:
    """Run ``statements`` in a child process on a writable sharded
    session ``s`` over ``manifest_path``, then kill the child without a
    checkpoint or a close. With ``die_at_manifest_save`` the child dies
    at its first manifest save instead, if it makes one, so the
    manifest's counts predate every write it committed."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    script = (
        "import os\n"
        "from repro.cluster.partition import ShardManifest\n"
        "from repro.core.pfv import PFV\n"
        "from repro.engine import connect\n"
        + (
            "ShardManifest.save = lambda self, path: os._exit(0)\n"
            if die_at_manifest_save
            else ""
        )
        + f"s = connect({manifest_path!r}, backend='sharded', writable=True)\n"
        f"{statements}\n"
        "os._exit(0)\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        check=True,
        timeout=120,
    )


def test_reader_counts_a_crashed_writers_tail_at_open(tmp_path):
    """A writer killed after committing leaves its inserts in the shard
    WALs, two of them in shards it created (empty at build time). A
    reader opened next replays them: ``len()`` counts all of them at
    once, and the fan-out returns them."""
    db = PFVDatabase(
        [PFV([0.2] * 3, [0.1] * 3, key=0), PFV([0.8] * 3, [0.1] * 3, key=1)]
    )
    manifest = build_shards(
        db, 4, str(tmp_path / "tail"), policy="round-robin"
    )
    _run_killed_writer(
        manifest.source_path,
        "s.insert_many([PFV([0.5] * 3, [0.1] * 3, key=k) "
        "for k in range(2, 8)])",
    )
    with connect(manifest.source_path, backend="sharded") as reader:
        assert len(reader) == 8
        got = reader.execute(MLIQ(PFV([0.5] * 3, [0.3] * 3), 8)).matches
        assert {m.key for m in got} == set(range(8))
        assert len(reader) == 8


# ---------------------------------------------------------------------------
# Online re-sharding
# ---------------------------------------------------------------------------


def test_reshard_2_to_4_under_concurrent_queries(tmp_path):
    """Queries flowing throughout a 2→4 reshard never see a wrong or
    partial answer: every fresh session answers the full reference
    result, whether it opened on the old generation or the new one."""
    db = make_random_db(n=80, seed=96)
    manifest = build_shards(db, 2, str(tmp_path / "live"))
    q = make_random_query(seed=97)
    with connect(db, backend="tree") as ref:
        expected = {
            m.key: m.probability for m in ref.execute(MLIQ(q, 12)).matches
        }

    stop = threading.Event()
    errors: list = []
    answered = [0]

    def hammer():
        while not stop.is_set():
            try:
                with connect(
                    manifest.source_path, backend="sharded"
                ) as s:
                    got = {
                        m.key: m.probability
                        for m in s.execute(MLIQ(q, 12)).matches
                    }
                if set(got) != set(expected):
                    raise AssertionError(
                        f"wrong/partial answer during reshard: {sorted(got)}"
                    )
                for key, p in got.items():
                    if abs(p - expected[key]) > 1e-9:
                        raise AssertionError(f"posterior drift on {key}")
                answered[0] += 1
            except Exception as exc:  # pragma: no cover - failure report
                errors.append(exc)
                return

    thread = threading.Thread(target=hammer)
    thread.start()
    try:
        new_manifest = reshard(manifest.source_path, 4)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not errors, errors[0]
    assert answered[0] >= 1
    assert new_manifest.generation == 1
    assert new_manifest.n_shards == 4
    assert new_manifest.total_objects == 80
    # The cutover is on disk: a fresh load sees the new generation and
    # its answers still match the single-tree reference.
    reloaded = load_manifest(manifest.source_path)
    assert reloaded.generation == 1
    assert len([p for p in reloaded.shard_paths() if p]) == 4
    with connect(manifest.source_path, backend="sharded") as s:
        got = {m.key: m.probability for m in s.execute(MLIQ(q, 12)).matches}
    assert set(got) == set(expected)
    for key, p in got.items():
        assert p == pytest.approx(expected[key], abs=1e-9)
    # Old-generation files were left alone for pre-cutover readers.
    assert os.path.exists(str(tmp_path / "live.shard-00.gauss"))


def test_reshard_preserves_replica_count_and_serves_writes_after(tmp_path):
    db = make_random_db(n=24, seed=98)
    manifest = build_shards(db, 2, str(tmp_path / "rr"), replicas=1)
    new_manifest = reshard(manifest.source_path, 3)
    assert all(
        len(s.replicas) == 1 for s in new_manifest.shards if s.objects
    )
    # The new generation takes writes like any deployment.
    fresh = PFV([0.5] * 3, [0.1] * 3, key="post-reshard")
    with connect(
        manifest.source_path, backend="sharded", writable=True
    ) as s:
        s.insert(fresh)
        assert len(s) == 25
    with connect(manifest.source_path, backend="sharded") as s:
        got = {m.key for m in s.execute(MLIQ(fresh, 25)).matches}
    assert "post-reshard" in got


def test_reshard_refuses_cutover_on_count_mismatch(tmp_path, monkeypatch):
    """The materialized objects must match what the recovered shard
    headers count: a read that comes back short refuses the cutover."""
    db = make_random_db(n=10, seed=99)
    manifest = build_shards(db, 2, str(tmp_path / "bad"))
    materialize = ShardedBackend.database

    def short_read(self):
        return PFVDatabase(list(materialize(self))[1:])

    monkeypatch.setattr(ShardedBackend, "database", short_read)
    with pytest.raises(ClusterError, match="refusing to cut over"):
        reshard(manifest.source_path, 4)
    # The manifest was not replaced (no cutover happened).
    assert load_manifest(manifest.source_path).generation == 0


def test_reshard_cuts_over_past_stale_manifest_counts(tmp_path):
    """The manifest's counts are hints (a writer saves them only when
    it flushes or closes): a manifest whose counts disagree with the
    shard headers still cuts over, with every object the headers
    count."""
    import json

    db = make_random_db(n=10, seed=99)
    manifest = build_shards(db, 2, str(tmp_path / "stale"))
    with open(manifest.source_path) as f:
        doc = json.load(f)
    doc["shards"][0]["objects"] += 3
    with open(manifest.source_path, "w") as f:
        json.dump(doc, f)
    new_manifest = reshard(manifest.source_path, 4)
    assert new_manifest.generation == 1
    assert new_manifest.total_objects == 10
    assert _deployment_keys(manifest.source_path) == {v.key for v in db}


def _deployment_keys(manifest_path) -> set:
    with connect(manifest_path, backend="sharded") as s:
        n = len(s)
        return {
            m.key
            for m in s.execute(MLIQ(PFV([0.5] * 3, [0.3] * 3), n)).matches
        }


def test_reshard_refuses_a_live_writer_and_keeps_its_writes(tmp_path):
    """A live writer's unflushed insert and delete cancel in the count
    cross-check, and a reader cannot see them: reshard must refuse
    rather than cut over without them (and have the writer's next
    manifest refresh put generation 0 back)."""
    from repro.cli import main

    db = make_random_db(n=40, seed=5)
    manifest = build_shards(db, 2, str(tmp_path / "live"))
    gone = list(db)[7]
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        writer.insert(PFV([0.5] * 3, [0.1] * 3, key="x"))
        assert writer.delete(gone)
        with pytest.raises(ClusterError, match=r"shard \d .*open writable"):
            reshard(manifest.source_path, 4)
        assert load_manifest(manifest.source_path).generation == 0
        with pytest.raises(SystemExit, match=r"reshard refused: shard \d"):
            main(["reshard", manifest.source_path, "--shards", "3"])
        writer.insert(PFV([0.4] * 3, [0.1] * 3, key="after"))
    finally:
        writer.close()
    assert load_manifest(manifest.source_path).generation == 0
    assert not os.path.exists(str(tmp_path / "live.g1.shard-00.gauss"))

    new_manifest = reshard(manifest.source_path, 4)
    assert new_manifest.generation == 1
    keys = _deployment_keys(manifest.source_path)
    assert {"x", "after"} <= keys
    assert gone.key not in keys
    assert len(keys) == 41


def test_reshard_keeps_a_crashed_writers_committed_tail(tmp_path):
    """A writer killed after committing leaves its last writes only in
    the shard WALs. reshard holds the writer locks, so the reader it
    materializes through cannot replay them; it must replay them
    itself."""
    db = make_random_db(n=40, seed=5)
    manifest = build_shards(db, 2, str(tmp_path / "crash"))
    gone = list(db)[7]
    _run_killed_writer(
        manifest.source_path,
        "s.insert(PFV([0.5] * 3, [0.1] * 3, key='x'))\n"
        f"assert s.delete(PFV({gone.mu.tolist()!r}, "
        f"{gone.sigma.tolist()!r}, key={gone.key!r}))",
    )
    assert any(
        WriteAheadLog.has_committed(path + ".wal")
        for path in manifest.shard_paths()
    )
    reshard(manifest.source_path, 3)
    keys = _deployment_keys(manifest.source_path)
    assert "x" in keys
    assert gone.key not in keys
    assert len(keys) == 40


def test_reshard_after_a_killed_writer_cuts_over_with_every_object(
    tmp_path,
):
    """A writer that committed inserts and died without closing leaves
    manifest counts from before them; reshard counts from the recovered
    shard headers and cuts over with every object."""
    db = make_random_db(n=40, seed=5)
    manifest = build_shards(db, 2, str(tmp_path / "killed"), replicas=1)
    _run_killed_writer(
        manifest.source_path,
        "s.insert_many([PFV([0.5] * 3, [0.1] * 3, key=('k', i)) "
        "for i in range(6)])",
        die_at_manifest_save=True,
    )
    assert load_manifest(manifest.source_path).total_objects == 40
    new_manifest = reshard(manifest.source_path, 3)
    assert new_manifest.generation == 1
    assert new_manifest.total_objects == 46
    keys = _deployment_keys(manifest.source_path)
    assert keys == {v.key for v in db} | {("k", i) for i in range(6)}


def test_reshard_validates_arguments(tmp_path):
    db = make_random_db(n=6, seed=100)
    manifest = build_shards(db, 2, str(tmp_path / "val"))
    with pytest.raises(ValueError, match="new_n_shards"):
        reshard(manifest.source_path, 0)
    with pytest.raises(ValueError, match="unknown partition policy"):
        reshard(manifest.source_path, 3, policy="modulo")


# ---------------------------------------------------------------------------
# The elasticity property
# ---------------------------------------------------------------------------


class _InjectedLoss(RuntimeError):
    pass


class _FlakyRunner:
    """A shard task that fails once: while the sentinel file exists, the
    first shard task to run claims it (unlink is atomic) and raises —
    exercising the same failover hook a lost replica file does."""

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, session, payload):
        try:
            os.unlink(self.sentinel)
        except FileNotFoundError:
            pass
        else:
            raise _InjectedLoss("injected shard-task failure")
        return _run_shard_payload(session, payload)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_base=st.integers(6, 16),
    ops=st.lists(
        st.sampled_from(["write", "flush", "query", "kill+query"]),
        min_size=2,
        max_size=7,
    ),
)
def test_interleaved_workload_with_failovers_matches_single_tree(
    tmp_path_factory, seed, n_base, ops
):
    """Random interleaving of writes, checkpoints, queries and injected
    shard-task failures (failing over between two replicas) answers
    within 1e-9 of one in-memory tree over the same surviving
    objects."""
    tmp = tmp_path_factory.mktemp("elastic")
    db = make_random_db(n=n_base, seed=seed)
    manifest = build_shards(
        db, 2, str(tmp / "prop"), policy="round-robin", replicas=2
    )
    sentinel = str(tmp / "loss.sentinel")
    alive = list(db)
    serial = 0
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        for op in ops:
            if op == "write":
                batch = [
                    PFV(
                        [0.1 + 0.02 * ((serial + j) % 40)] * 3,
                        [0.12] * 3,
                        key=("prop", serial + j),
                    )
                    for j in range(2)
                ]
                serial += len(batch)
                writer.insert_many(batch)
                alive.extend(batch)
                continue
            if op == "flush":
                writer.flush()
                continue
            if op == "kill+query":
                with open(sentinel, "w"):
                    pass
            fresh = load_manifest(manifest.source_path)
            backend = ShardedBackend(
                fresh.shard_paths(),
                [s.objects for s in fresh.shards],
                inner="disk",
                inner_options={"mliq_tolerance": 1e-12},
                manifest=fresh,
                replicas=fresh.replica_paths(),
                runner=_FlakyRunner(sentinel),
            )
            reader = Session(backend)
            try:
                q = make_random_query(seed=seed + serial + 1)
                k = min(5, len(alive))
                got = reader.execute(MLIQ(q, k)).matches
            finally:
                reader.close()
            assert not os.path.exists(sentinel)
            reference = GaussTree(dims=3, degree=3)
            reference.extend(alive)
            exp, _ = gausstree_mliq(reference, MLIQuery(q, k))
            assert {m.key for m in got} == {m.key for m in exp}
            exp_p = {m.key: m.probability for m in exp}
            for m in got:
                assert m.probability == pytest.approx(
                    exp_p[m.key], abs=1e-9
                )
    finally:
        writer.close()


# ---------------------------------------------------------------------------
# The re-identification churn property
# ---------------------------------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_base=st.integers(6, 14),
    ops=st.lists(
        st.sampled_from(
            ["identify+insert", "kill+identify", "expire", "flush"]
        ),
        min_size=3,
        max_size=8,
    ),
)
def test_reid_churn_with_worker_kills_matches_single_tree_replay(
    tmp_path_factory, seed, n_base, ops
):
    """The re-identification workload as a property: a randomized
    identify-then-insert / sliding-window-expire stream over a writable
    round-robin 2-shard x 2-replica cluster, with shard-task failures
    injected mid-batch during identification, scores every ConsensusTopK and
    ExpectedRank answer within 1e-9 of one in-memory tree replayed over
    the same surviving tracks. Expiry also deletes an already-expired
    ghost each round, pinning the clean not-found path under churn."""
    tmp = tmp_path_factory.mktemp("reid")
    db = make_random_db(n=n_base, seed=seed)
    manifest = build_shards(
        db, 2, str(tmp / "reid"), policy="round-robin", replicas=2
    )
    sentinel = str(tmp / "loss.sentinel")
    alive = list(db)
    window: list[PFV] = []  # FIFO of churned-in tracks, stalest first
    serial = 0
    writer = connect(manifest.source_path, backend="sharded", writable=True)
    try:
        for op in ops:
            if op == "flush":
                writer.flush()
                continue
            if op == "expire":
                # Sliding window: the two stalest churned-in tracks go.
                for _ in range(2):
                    if window:
                        stale = window.pop(0)
                        assert writer.delete(stale) is True
                        alive.remove(stale)
                # A track expired in an earlier round (or never inserted)
                # is a clean miss, never a ClusterError.
                ghost = PFV([0.7] * 3, [0.1] * 3, key=("reid", "ghost"))
                assert writer.delete(ghost) is False
                continue
            if op == "kill+identify":
                with open(sentinel, "w"):
                    pass
            # Identify: rank the observation against the live cluster
            # under both semantics, through a reader whose runner fails
            # one shard task mid-batch whenever the sentinel is armed.
            q = make_random_query(seed=seed + 31 * serial + 7)
            k = min(4, len(alive))
            fresh = load_manifest(manifest.source_path)
            backend = ShardedBackend(
                fresh.shard_paths(),
                [s.objects for s in fresh.shards],
                inner="disk",
                inner_options={"mliq_tolerance": 1e-12},
                manifest=fresh,
                replicas=fresh.replica_paths(),
                runner=_FlakyRunner(sentinel),
            )
            reader = Session(backend)
            try:
                got_consensus = reader.execute(ConsensusTopK(q, k)).matches
                got_erank = reader.execute(ExpectedRank(q, k)).matches
            finally:
                reader.close()
            assert not os.path.exists(sentinel)
            with connect(PFVDatabase(alive), backend="tree") as reference:
                exp_consensus = reference.execute(
                    ConsensusTopK(q, k)
                ).matches
                exp_erank = reference.execute(ExpectedRank(q, k)).matches
            for got, exp in (
                (got_consensus, exp_consensus),
                (got_erank, exp_erank),
            ):
                assert {m.key for m in got} == {m.key for m in exp}
                exp_by_key = {m.key: m for m in exp}
                for m in got:
                    ref = exp_by_key[m.key]
                    assert m.probability == pytest.approx(
                        ref.probability, abs=1e-9
                    )
                    assert m.score == pytest.approx(ref.score, abs=1e-9)
            if op == "identify+insert":
                # Identify-then-insert: the observation becomes a new
                # track regardless of whether it matched (re-observation
                # of a known identity keeps its own track version).
                track = PFV(q.mu, q.sigma, key=("reid", serial))
                serial += 1
                writer.insert(track)
                alive.append(track)
                window.append(track)
    finally:
        writer.close()
