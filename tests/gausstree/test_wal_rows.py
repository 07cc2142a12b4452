"""Row-edit logging: a write that only appends or removes rows of an
existing leaf logs those rows, not the page.

What these tests hold the write path to:

* **Size.** On reid-churn's shard shape (a 100-row 4-d root leaf, keys
  ``("track", n)``) one insert logs 211 WAL bytes and one delete 97:
  a ``ROWS`` record, the new key, the header's used bytes and the
  ``COMMIT``. A split still logs full page images.
* **Replay.** Row edits do not replay idempotently the way page images
  do, so every transaction before a publish carries an image of each
  page with row edits since its last image. A crash between a publish
  (the checkpoint's or recovery's own) and the WAL reset must reopen to
  exactly the state of a run without the crash; so must a WAL cut at
  any byte, to the committed prefix the writer held, page for page; and
  a replica fed the row edits must be the primary's checkpointed file,
  byte for byte.
* **Unknown records.** Recovery refuses a committed record type it does
  not know rather than replaying around it.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.gausstree.persist import recover_index
from repro.gausstree.tree import GaussTree
from repro.storage.fault import InjectedCrash
from repro.storage.ship import WALShipper, replica_path
from repro.storage.wal import (
    REC_KEYS,
    REC_META,
    REC_PAGE,
    REC_ROWS,
    WAL_MAGIC,
    WriteAheadLog,
)

from tests.gausstree.test_persist_write import make_vectors


def tracks(rng, first, n, d=4):
    """Observations keyed like reid-churn's tracks, ``("track", serial)``."""
    return [
        PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(0.03, 0.12, d),
            key=("track", first + i),
        )
        for i in range(n)
    ]


def churn_index(path, rng, version=3):
    """reid-churn's shard shape: a root leaf of 100 4-d tracks on the
    default 8 KiB layout (leaves hold up to 112 rows)."""
    gallery = tracks(rng, 0, 100)
    tree = GaussTree(dims=4)
    tree.extend(gallery)
    tree.save(path, version=version)
    return gallery


def churn(tree, rng, window, cycles):
    """reid-churn's writes: insert a track, delete the oldest."""
    for v in tracks(rng, 1000, cycles):
        tree.insert(v)
        window.append(v)
        assert tree.delete(window.pop(0))


def state(path):
    """What a reopened index holds: its size, its keys and its file."""
    tree = GaussTree.open(path)
    try:
        size = len(tree)
        keys = sorted(v.key for v in tree)
        tree.check_invariants()
    finally:
        tree.close()
    with open(path, "rb") as f:
        return size, keys, f.read()


def test_row_writes_log_their_rows_and_a_split_logs_pages(tmp_path):
    path = str(tmp_path / "churn.gauss")
    rng = np.random.default_rng(0)
    gallery = churn_index(path, rng)
    tree = GaussTree.open(path, writable=True)
    wal = tree._writer.wal
    start = wal.tell()
    tree.insert(tracks(rng, 100, 1)[0])
    inserted = wal.tell() - start
    assert tree.delete(gallery[0])
    deleted = wal.tell() - start - inserted
    # Rows 101..112 fit the root leaf; the 113th splits it.
    tree.insert_many(tracks(rng, 101, 12))
    tree.insert(tracks(rng, 113, 1)[0])
    assert tree.height == 2
    tree.insert(tracks(rng, 114, 1)[0])
    tree.close(checkpoint=False)
    insert, delete, grown, split, below = WriteAheadLog.scan(path + ".wal")
    # ROWS: page id 4 + tag 1 + slot 8 + 2 x 32 row bytes; KEYS: the
    # tagged key ("track", 100); META: the 61-byte fixed header and an
    # empty free list; each record adds 9 framing bytes, and the COMMIT
    # is framing alone.
    assert (inserted, deleted) == (211, 97)
    assert [(r, len(p)) for r, p in insert] == [
        (REC_ROWS, 77), (REC_KEYS, 37), (REC_META, 61),
    ]
    assert [(r, len(p)) for r, p in delete] == [(REC_ROWS, 9), (REC_META, 61)]
    assert [r for r, _ in grown] == [REC_ROWS, REC_KEYS, REC_META]
    # Both halves of the split leaf and the new root, as images.
    assert [r for r, _ in split] == [REC_PAGE] * 3 + [REC_KEYS, REC_META]
    # A leaf below the new root logs its row; the root's page, whose
    # child rectangle and count moved, logs its image.
    assert sorted(r for r, _ in below) == sorted(
        [REC_ROWS, REC_PAGE, REC_KEYS, REC_META]
    )
    size, keys, _ = state(path)  # recovery replays every record
    assert size == 114
    assert keys == sorted(
        [v.key for v in gallery[1:]] + [("track", 100 + i) for i in range(15)]
    )


def test_recovery_refuses_a_record_type_it_does_not_know(tmp_path):
    path = str(tmp_path / "future.gauss")
    churn_index(path, np.random.default_rng(2))
    wal = WriteAheadLog(path + ".wal")
    wal.append(REC_KEYS, b"[]")
    wal.commit()
    wal.append(99, b"a record from a later build")
    wal.commit()
    wal.close()
    with open(path, "rb") as f:
        main = f.read()
    with open(path + ".wal", "rb") as f:
        log = f.read()
    # The magic (8), the KEYS record (9 + 2) and the first COMMIT (9).
    for writable in (False, True):
        with pytest.raises(ValueError, match=r"unknown type 99 at offset 28"):
            GaussTree.open(path, writable=writable)
    with open(path, "rb") as f:
        assert f.read() == main
    with open(path + ".wal", "rb") as f:
        assert f.read() == log


class TestReplayAfterPublish:
    """A crash between a publish and the WAL reset replays the WAL over
    the generation it just published. Row edits alone would be applied
    a second time there; the images sealed before each publish make the
    replay land on the same state as a run without the crash."""

    @staticmethod
    def _churned(directory, version):
        """reid-churn's writes: row edits of a leaf with no image in the
        WAL, so a replay that applies them twice shows."""
        path = os.path.join(directory, "t.gauss")
        rng = np.random.default_rng(5)
        window = churn_index(path, rng, version=version)
        tree = GaussTree.open(path, writable=True)
        churn(tree, rng, window, cycles=25)
        return path, tree

    @pytest.mark.parametrize("version", [2, 3])
    def test_crash_between_checkpoint_publish_and_wal_reset(
        self, tmp_path, version
    ):
        clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()
        path, tree = self._churned(str(clean_dir), version)
        tree.close()
        expected = state(path)

        path, tree = self._churned(str(crash_dir), version)

        def died() -> None:
            raise InjectedCrash("died between the publish and the reset")

        tree._writer.wal.reset = died
        with pytest.raises(InjectedCrash):
            tree.flush()
        tree.close(checkpoint=False)
        assert WriteAheadLog.scan(path + ".wal")  # the replay has work
        assert state(path) == expected

    @pytest.mark.parametrize("version", [2, 3])
    def test_crash_between_recovery_publish_and_wal_reset(
        self, tmp_path, version, monkeypatch
    ):
        clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()
        path, tree = self._churned(str(clean_dir), version)
        tree.close(checkpoint=False)
        expected = state(path)  # recovers without a crash

        path, tree = self._churned(str(crash_dir), version)
        tree.close(checkpoint=False)

        def died(self) -> None:
            raise InjectedCrash("died between the publish and the reset")

        monkeypatch.setattr(WriteAheadLog, "reset", died)
        with pytest.raises(InjectedCrash):
            recover_index(path)
        monkeypatch.undo()
        assert WriteAheadLog.scan(path + ".wal")  # the replay has work
        assert state(path) == expected


def node_pages(tree):
    """A tree's size, keys and the bytes of every node page by id."""
    return (
        len(tree),
        sorted(v.key for v in tree),
        {node.page_id: tree.store.fetch_page(node.page_id)
         for node in tree.nodes()},
    )


@given(
    version=st.sampled_from([2, 3]),
    d=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    n_base=st.integers(0, 30),
    ops=st.lists(st.integers(0, 2), min_size=1, max_size=30),
    data=st.data(),
)
@settings(deadline=None)  # example budget comes from the active profile
def test_a_wal_cut_at_any_byte_recovers_the_writers_pages(
    tmp_path_factory, version, d, seed, n_base, ops, data
):
    """Random inserts and deletes on a degree-3 tree (splits, dissolves
    and reinserts as well as row edits), then the WAL cut at a random
    byte: the reopened index holds the committed prefix, and every node
    page is the image the writer's store held after that prefix."""
    directory = tmp_path_factory.mktemp("cut")
    path = str(directory / "t.gauss")
    rng = np.random.default_rng(seed)
    base = make_vectors(rng, n_base, d, "base")
    fresh = iter(make_vectors(rng, len(ops), d, "fresh"))
    tree = GaussTree(dims=d, degree=3)
    tree.extend(base)
    tree.save(path, version=version)
    with open(path, "rb") as f:
        main = f.read()

    writer = GaussTree.open(path, writable=True)
    wal = writer._writer.wal
    prefixes = [(wal.tell(), node_pages(writer))]
    alive = list(base)
    for op in ops:
        if op < 2 or not alive:
            v = next(fresh)
            writer.insert(v)
            alive.append(v)
        else:
            assert writer.delete(alive.pop(int(rng.integers(len(alive)))))
        prefixes.append((wal.tell(), node_pages(writer)))
    writer.close(checkpoint=False)
    with open(path + ".wal", "rb") as f:
        log = f.read()

    cut = data.draw(st.integers(len(WAL_MAGIC), len(log)), label="cut")
    crashed = str(directory / "crashed.gauss")
    with open(crashed, "wb") as f:
        f.write(main)
    with open(crashed + ".wal", "wb") as f:
        f.write(log[:cut])
    expected = [pages for end, pages in prefixes if end <= cut][-1]
    recovered = GaussTree.open(crashed)
    try:
        recovered.check_invariants()
        assert node_pages(recovered) == expected
    finally:
        recovered.close()


@pytest.mark.parametrize("version", [2, 3])
def test_shipped_row_edits_build_the_primarys_checkpointed_file(
    tmp_path, version
):
    """A replica applies each shipped batch of row edits through
    recovery; after the primary checkpoints, the two files are equal."""
    path = str(tmp_path / "primary.gauss")
    rng = np.random.default_rng(9)
    window = churn_index(path, rng, version=version)
    tree = GaussTree.open(path, writable=True)
    replica = replica_path(path, 1)
    shipper = WALShipper(path, [replica])
    serial = 1000
    # Row edits on the root leaf, shipped one write at a time; then
    # growth past the leaf's capacity (a split, images) and row edits
    # below the new root.
    for v in tracks(rng, serial, 30):
        tree.insert(v)
        shipper.ship()
        window.append(v)
        assert tree.delete(window.pop(0))
        shipper.ship()
    for v in tracks(rng, serial + 30, 30):
        tree.insert(v)
        shipper.ship()
    assert tree.height == 2
    tree.flush()
    with open(path, "rb") as f:
        primary = f.read()
    tree.close()
    with open(replica, "rb") as f:
        assert f.read() == primary
    assert WriteAheadLog.scan(replica + ".wal") == []
