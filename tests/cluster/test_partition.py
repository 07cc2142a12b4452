"""Shard assignment: deterministic placement and manifest round trips.

The hash policy must place the same object on the same shard in *every*
process — the manifest written by one machine is read by serving
processes and pool workers, so ``PYTHONHASHSEED`` randomisation (or any
other per-process state) must never leak into placement. That property
is tested for real: a subprocess with a different hash seed must compute
identical assignments.
"""

import dataclasses
import json
import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cluster import (
    ClusterError,
    build_shards,
    load_manifest,
    partition_database,
    shard_of,
    stable_shard_hash,
)
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.engine import MLIQ, connect

from tests.conftest import make_random_db, make_random_query


def _mixed_key_db(n: int = 40) -> PFVDatabase:
    """Keys of several shapes (ints, strings, tuples, None) so stable
    hashing is exercised beyond toy integer keys."""
    rng = np.random.default_rng(11)
    keys = []
    for i in range(n):
        keys.append(
            [i, f"obj-{i}", ("group", i % 5, i), None][i % 4]
        )
    return PFVDatabase(
        [
            PFV(rng.uniform(0, 1, 3), rng.uniform(0.05, 0.4, 3), key=k)
            for k in keys
        ]
    )


@pytest.mark.parametrize("policy", ["hash", "round-robin"])
@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
def test_every_object_lands_in_exactly_one_shard(policy, n_shards):
    db = _mixed_key_db()
    parts = partition_database(db, n_shards, policy)
    assert len(parts) == n_shards
    assert sum(len(p) for p in parts) == len(db)
    # Disjoint and complete: every stored pfv appears exactly once.
    seen = [v for part in parts for v in part]
    assert sorted(map(hash, seen)) == sorted(map(hash, db))
    # And each lands where shard_of says it does.
    for position, v in enumerate(db):
        expected = shard_of(v, position, n_shards, policy)
        assert v in list(parts[expected])


def test_round_robin_is_balanced():
    db = make_random_db(n=30)
    parts = partition_database(db, 4, "round-robin")
    assert sorted(len(p) for p in parts) == [7, 7, 8, 8]


def test_unknown_policy_rejected():
    db = make_random_db(n=3)
    with pytest.raises(ValueError, match="unknown partition policy"):
        partition_database(db, 2, "alphabetical")


def test_hash_policy_is_deterministic_across_processes():
    """Same assignments under a different PYTHONHASHSEED: placement can
    never depend on Python's randomised ``hash()``."""
    db = _mixed_key_db()
    local = [shard_of(v, i, 5, "hash") for i, v in enumerate(db)]
    hashes = [stable_shard_hash(v) for v in db]

    program = textwrap.dedent(
        """
        import json, sys
        import numpy as np
        from repro.cluster import shard_of, stable_shard_hash
        from repro.core.database import PFVDatabase
        from repro.core.pfv import PFV

        rng = np.random.default_rng(11)
        keys = []
        for i in range(40):
            keys.append([i, f"obj-{i}", ("group", i % 5, i), None][i % 4])
        db = PFVDatabase(
            PFV(rng.uniform(0, 1, 3), rng.uniform(0.05, 0.4, 3), key=k)
            for k in keys
        )
        print(json.dumps({
            "shards": [shard_of(v, i, 5, "hash") for i, v in enumerate(db)],
            "hashes": [stable_shard_hash(v) for v in db],
        }))
        """
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "31337"  # different randomisation than ours
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    remote = json.loads(out.stdout)
    assert remote["shards"] == local
    assert remote["hashes"] == hashes


def test_anonymous_vectors_place_deterministically():
    v = PFV([0.25, 0.5], [0.1, 0.2], key=None)
    again = PFV([0.25, 0.5], [0.1, 0.2], key=None)
    assert stable_shard_hash(v) == stable_shard_hash(again)


def test_manifest_round_trips_through_shard_build(tmp_path):
    db = make_random_db(n=45, seed=3)
    manifest = build_shards(db, 3, tmp_path / "idx", policy="hash")
    assert manifest.source_path == str(tmp_path / "idx.shards.json")

    loaded = load_manifest(manifest.source_path)
    assert loaded.policy == "hash"
    assert loaded.n_shards == 3
    assert loaded.total_objects == len(db)
    assert [s.objects for s in loaded.shards] == [
        s.objects for s in manifest.shards
    ]
    for path, info in zip(loaded.shard_paths(), loaded.shards):
        if info.objects:
            assert path is not None and os.path.exists(path)

    # The round trip serves queries: connect(manifest) == seqscan answers.
    q = make_random_query(seed=9)
    with connect(db, backend="seqscan") as ref:
        expected = {
            m.key: m.probability for m in ref.execute(MLIQ(q, 6)).matches
        }
    with connect(manifest.source_path, backend="sharded") as session:
        assert len(session) == len(db)
        got = {
            m.key: m.probability for m in session.execute(MLIQ(q, 6)).matches
        }
    assert set(got) == set(expected)
    for key, p in got.items():
        assert p == pytest.approx(expected[key], abs=1e-9)


def test_more_shards_than_objects_leaves_empty_shards(tmp_path):
    db = make_random_db(n=2, seed=4)
    manifest = build_shards(db, 5, tmp_path / "tiny", policy="round-robin")
    empties = [s for s in manifest.shards if s.objects == 0]
    assert len(empties) == 3
    assert all(s.path is None for s in empties)
    with connect(manifest.source_path, backend="sharded") as session:
        assert len(session) == 2
        rs = session.execute(MLIQ(make_random_query(seed=5), 10))
        assert len(rs.matches) == 2


def test_manifest_save_fsyncs_the_file_then_its_directory(
    tmp_path, monkeypatch
):
    """A save is durable: the new JSON is fsynced before the rename
    publishes it, and the directory after, so the rename survives a
    crash."""
    manifest = build_shards(make_random_db(n=6, seed=4), 2, tmp_path / "d")
    path = manifest.source_path
    synced = []
    fsync = os.fsync

    def spy(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        with open(path) as f:
            published = json.load(f)["placement_epoch"] == 7
        synced.append((is_dir, published))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    dataclasses.replace(manifest, placement_epoch=7).save(path)
    assert synced == [(False, False), (True, True)]
    assert load_manifest(path).placement_epoch == 7


def test_build_shards_accepts_prefix_with_manifest_suffix(tmp_path):
    db = make_random_db(n=10)
    manifest = build_shards(db, 2, tmp_path / "x.shards.json")
    assert manifest.source_path == str(tmp_path / "x.shards.json")


def test_load_manifest_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.shards.json"
    with pytest.raises(ClusterError, match="not found"):
        load_manifest(missing)

    bad_json = tmp_path / "bad.shards.json"
    bad_json.write_text("{not json")
    with pytest.raises(ClusterError, match="cannot parse"):
        load_manifest(bad_json)

    wrong_format = tmp_path / "fmt.shards.json"
    wrong_format.write_text(json.dumps({"format": "parquet"}))
    with pytest.raises(ClusterError, match="format marker"):
        load_manifest(wrong_format)

    mismatched = tmp_path / "mismatch.shards.json"
    mismatched.write_text(
        json.dumps(
            {
                "format": "gausstree-shards",
                "version": 1,
                "policy": "hash",
                "sigma_rule": "convolution",
                "n_shards": 3,
                "shards": [{"path": "a.gauss", "objects": 1}],
            }
        )
    )
    with pytest.raises(ClusterError, match="n_shards=3 but"):
        load_manifest(mismatched)
