"""One storage write path: the generation publisher and what rides on it.

* **The publisher** — :func:`~repro.storage.filestore.publish_generation`
  is the one writer of new index-file generations (checkpoint, crash
  recovery, replica resync). A crash at any written byte leaves the
  target byte-identical and no temp file behind; a completed publish
  gives the target the expected bytes under a new inode.
* **Replica snapshots** — a full :class:`~repro.storage.ship.WALShipper`
  resync publishes a new replica generation, so a read-only session
  already open on the replica keeps answering from its snapshot.
* **Uncheckpointed images live in the store** — a store write keeps its
  image in the store's pending map whatever the buffer does (evict,
  invalidate, cold start, hold nothing at all) until a checkpoint
  publishes it or a free drops it; a writable tree answers correctly on
  buffers of any size, and a checkpoint followed by a cold reopen equals
  an in-memory tree.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.gausstree import gausstree_mliq, gausstree_tiq
from repro.gausstree.tree import GaussTree
from repro.storage.buffer import BufferManager
from repro.storage.fault import FaultInjector, InjectedCrash
from repro.storage.filestore import FilePageStore, publish_generation
from repro.storage.ship import WALShipper, replica_path

from tests.conftest import make_random_query

PAGE = 256


def make_vectors(rng, n, d, tag):
    return [
        PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d), key=(tag, i))
        for i in range(n)
    ]


def answers(tree, q, k=5, theta=0.1):
    """MLIQ and TIQ answers as comparable key/probability data."""
    mliq, _ = gausstree_mliq(tree, MLIQuery(q, k))
    tiq, _ = gausstree_tiq(tree, ThresholdQuery(q, theta))
    return (
        {m.key: m.probability for m in mliq},
        {m.key: m.probability for m in tiq},
    )


def assert_same_answers(expected_tree, actual_tree, q):
    expected, actual = answers(expected_tree, q), answers(actual_tree, q)
    for want, got in zip(expected, actual):
        assert set(got) == set(want)
        for key, probability in got.items():
            assert probability == pytest.approx(want[key], abs=1e-9)


# ---------------------------------------------------------------------------
# The publisher under crash injection
# ---------------------------------------------------------------------------


@st.composite
def generations(draw):
    """A current generation's bytes plus the parts of a new one."""
    page_count = draw(st.integers(1, 6))
    kt_offset = (page_count + 1) * PAGE
    base = draw(st.binary(min_size=0, max_size=kt_offset + 300))
    pids = draw(st.sets(st.integers(1, page_count + 2), max_size=5))
    images = {
        pid: draw(st.binary(min_size=PAGE, max_size=PAGE)) for pid in pids
    }
    table = draw(st.binary(min_size=0, max_size=400))
    header = draw(st.binary(min_size=PAGE, max_size=PAGE))
    return page_count, base, images, table, header


def expected_generation(page_count, base, images, table, header):
    """The publisher's output, computed without it."""
    kt_offset = (page_count + 1) * PAGE
    out = bytearray(base[:kt_offset].ljust(kt_offset, b"\x00"))
    for pid, image in images.items():
        if pid <= page_count:  # pages past the high-water mark vanish
            out[pid * PAGE : (pid + 1) * PAGE] = image
    out[:PAGE] = header
    return bytes(out) + table


class TestPublishGeneration:
    @given(generation=generations(), budget=st.integers(0, 6_000))
    @settings(deadline=None)  # example budget comes from the active profile
    def test_crash_at_any_byte_leaves_the_target_untouched(
        self, tmp_path_factory, generation, budget
    ):
        page_count, base, images, table, header = generation
        directory = tmp_path_factory.mktemp("publish")
        target = str(directory / "index.gauss")
        with open(target, "wb") as f:
            f.write(base)
        inode = os.stat(target).st_ino
        injector = FaultInjector(budget)
        with open(target, "rb") as current:
            try:
                publish_generation(
                    target,
                    current,
                    page_size=PAGE,
                    page_count=page_count,
                    images=images,
                    table=table,
                    header_page=header,
                    file_factory=injector.open,
                )
            except InjectedCrash:
                pass
        assert os.listdir(directory) == ["index.gauss"]  # no temp file
        with open(target, "rb") as f:
            published = f.read()
        if injector.crashed:
            assert published == base
            assert os.stat(target).st_ino == inode
        else:
            assert published == expected_generation(*generation)
            assert os.stat(target).st_ino != inode

    def test_publishing_to_another_path_copies_the_base(self, tmp_path):
        source = str(tmp_path / "primary.gauss")
        target = str(tmp_path / "replica.gauss")
        base = bytes(range(256)) * 3
        with open(source, "wb") as f:
            f.write(base)
        with open(source, "rb") as current:
            publish_generation(
                target,
                current,
                page_size=PAGE,
                page_count=2,
                images={},
                table=b"",
                header_page=base[:PAGE],
            )
        with open(target, "rb") as f:
            assert f.read() == base
        assert sorted(os.listdir(tmp_path)) == [
            "primary.gauss", "replica.gauss",
        ]


# ---------------------------------------------------------------------------
# A replica reader keeps its snapshot across a full resync
# ---------------------------------------------------------------------------


def test_replica_reader_keeps_its_snapshot_across_a_full_resync(tmp_path):
    d = 3
    rng = np.random.default_rng(7)
    path = str(tmp_path / "primary.gauss")
    base = make_vectors(rng, 120, d, "base")
    shipped = make_vectors(rng, 30, d, "shipped")
    snapshot = GaussTree(dims=d, degree=3)
    snapshot.extend(base)
    snapshot.save(path)
    snapshot.extend(shipped)
    rp = replica_path(path, 1)
    shipper = WALShipper(path, [rp])
    writer = GaussTree.open(path, writable=True)
    try:
        writer.insert_many(shipped)
        assert shipper.ship() == 1  # incremental: the replica holds 150
        # Opened before the resync, queried only after it: every page
        # below the root is still a stub, to be read from the generation
        # this reader opened.
        reader = GaussTree.open(rp)
        try:
            writer.insert_many(make_vectors(rng, 400, d, "new"))
            # A checkpoint the shipper was not told about resets the
            # primary WAL under it, so the next ship is a full resync.
            writer.flush()
            assert shipper.ship() == 1
            assert len(reader) == 150
            for seed in range(5):
                q = make_random_query(d=d, seed=seed)
                assert_same_answers(snapshot, reader, q)
            reader.check_invariants()
        finally:
            reader.close()
    finally:
        writer.close()
    fresh = GaussTree.open(rp)
    try:
        assert len(fresh) == 550
    finally:
        fresh.close()


# ---------------------------------------------------------------------------
# Committed images survive any buffer, cold starts and checkpoints
# ---------------------------------------------------------------------------


def on_disk(pid):
    """Page ``pid`` of a raw store's main file (page 0 is the header)."""
    return bytes([pid]) * PAGE


def image(pid):
    """A committed image of page ``pid`` that differs from the file's."""
    return bytes([0xA0 + pid]) * PAGE


def raw_store(path, *, pages=4, capacity=4, writable=True):
    """A store over a main file of ``pages`` distinct node pages."""
    path.write_bytes(b"".join(on_disk(pid) for pid in range(pages + 1)))
    return FilePageStore(
        path,
        PAGE,
        allocated_pages=pages,
        writable=writable,
        buffer=BufferManager(capacity),
    )


class TestPendingImages:
    """The store's pending map, not the buffer, holds every committed
    image until a checkpoint publishes it; the main file never changes
    in between."""

    def test_write_keeps_the_image_pending(self, tmp_path):
        path = tmp_path / "raw.gauss"
        with raw_store(path) as store:
            store.write(1, image(1))
            store.read(2)
            images = store.dirty_images()
            assert images == {1: image(1)}
            images.clear()  # a copy: the store keeps its own map
            assert store.dirty_images() == {1: image(1)}
            assert store.read(1) == image(1)
            assert store.read(2) == on_disk(2)
        assert path.read_bytes()[PAGE : 2 * PAGE] == on_disk(1)

    def test_write_counts_one_buffer_access(self, tmp_path):
        with raw_store(tmp_path / "raw.gauss") as store:
            store.write(1, image(1))  # fault
            store.write(1, image(2))  # hit; the newer image replaces it
            stats = store.buffer.stats
            assert (stats.accesses, stats.faults, stats.hits) == (2, 1, 1)
            assert store.log.pages_written == 2
            assert store.dirty_images() == {1: image(2)}
            assert store.fetch_page(1) == image(2)

    def test_zero_capacity_buffer_keeps_the_image_in_the_store(self, tmp_path):
        with raw_store(tmp_path / "raw.gauss", capacity=0) as store:
            store.write(1, image(1))
            assert not store.buffer.contains(1)
            assert store._frames == {}
            assert store.dirty_images() == {1: image(1)}
            assert store.read(1) == image(1)
            assert store.buffer.stats.faults == 2

    def test_eviction_drops_the_frame_and_keeps_the_image(self, tmp_path):
        path = tmp_path / "raw.gauss"
        with raw_store(path, capacity=1) as store:
            original = path.read_bytes()
            store.write(1, image(1))
            assert store._frames == {1: image(1)}
            store.read(2)  # evicts page 1
            assert store.buffer.stats.evictions == 1
            assert not store.buffer.contains(1)
            assert 1 not in store._frames
            assert store.dirty_images() == {1: image(1)}
            assert store.read(1) == image(1)  # faults back in from the map
            assert store._frames == {1: image(1)}
        assert path.read_bytes() == original

    def test_invalidate_and_cold_start_keep_pending_images(self, tmp_path):
        with raw_store(tmp_path / "raw.gauss") as store:
            store.write(1, image(1))
            store.buffer.invalidate(1)
            assert 1 not in store._frames
            store.write(2, image(2))
            store.write(3, image(3))
            store.cold_start()
            assert store._frames == {}
            assert store.buffer.resident_pages == 0
            expected = {pid: image(pid) for pid in (1, 2, 3)}
            assert store.dirty_images() == expected
            assert [store.read(pid) for pid in (1, 2, 3, 4)] == [
                image(1), image(2), image(3), on_disk(4),
            ]

    def test_checkpoint_then_mark_all_clean_serves_the_main_file(
        self, tmp_path
    ):
        path = tmp_path / "raw.gauss"
        with raw_store(path) as store:
            store.write(1, image(1))
            store.write(3, image(3))
            store.publish_checkpoint(store.dirty_images(), b"table", image(0))
            store.mark_all_clean()
            assert store.dirty_images() == {}
            store.cold_start()
            assert [store.read(pid) for pid in (1, 2, 3, 4)] == [
                image(1), on_disk(2), image(3), on_disk(4),
            ]
        assert path.read_bytes() == b"".join(
            [image(0), image(1), on_disk(2), image(3), on_disk(4), b"table"]
        )

    def test_free_drops_the_pending_image(self, tmp_path):
        path = tmp_path / "raw.gauss"
        with raw_store(path) as store:
            store.write(2, image(2))
            store.write(3, image(3))
            store.free(2)
            assert store.dirty_images() == {3: image(3)}
            assert store.free_pages == (2,)
            # A reused id starts from the main file's bytes, not the
            # freed page's unpublished image.
            assert store.allocate() == 2
            assert store.fetch_page(2) == on_disk(2)
            store.publish_checkpoint(store.dirty_images(), b"", on_disk(0))
        assert path.read_bytes()[2 * PAGE : 3 * PAGE] == on_disk(2)

    def test_invalid_writes_leave_no_image(self, tmp_path):
        with raw_store(tmp_path / "raw.gauss") as store:
            with pytest.raises(KeyError):
                store.write(9, image(9))
            with pytest.raises(ValueError):
                store.write(1, b"short")
            assert store.dirty_images() == {}
            assert store.buffer.stats.accesses == 0
        read_only = raw_store(tmp_path / "ro.gauss", writable=False)
        with read_only:
            with pytest.raises(RuntimeError, match="read-only"):
                read_only.write(1, image(1))
            assert read_only.dirty_images() == {}

    def test_close_forgets_pending_images(self, tmp_path):
        path = tmp_path / "raw.gauss"
        store = raw_store(path)
        original = path.read_bytes()
        buffer = store.buffer
        store.write(1, image(1))
        store.close()
        assert store.dirty_images() == {}
        assert buffer._evict_listeners == []
        # The WAL, not the main file, holds what was never checkpointed.
        assert path.read_bytes() == original


@pytest.mark.parametrize("capacity", [0, 1, 4, None])
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 30))
@settings(deadline=None)
def test_writable_tree_on_any_buffer_matches_an_in_memory_tree(
    tmp_path_factory, capacity, seed, n_ops
):
    d = 2
    rng = np.random.default_rng(seed)
    path = str(tmp_path_factory.mktemp("buffers") / "t.gauss")
    base = make_vectors(rng, 20, d, "base")
    reference = GaussTree(dims=d, degree=3)
    reference.extend(base)
    reference.save(path)
    live = list(base)
    fresh = iter(make_vectors(rng, n_ops, d, "new"))
    buffer = None if capacity is None else BufferManager(capacity)

    tree = GaussTree.open(path, buffer, writable=True)
    try:
        for step in range(n_ops):
            op = rng.integers(3)
            if op == 0 or not live:
                v = next(fresh)
                tree.insert(v)
                reference.insert(v)
                live.append(v)
            elif op == 1:
                v = live.pop(int(rng.integers(len(live))))
                assert tree.delete(v)
                assert reference.delete(v)
            else:
                q = make_random_query(d=d, seed=seed + step)
                assert_same_answers(reference, tree, q)

        store = tree.store
        images = store.dirty_images()
        store.cold_start()  # drops every frame, keeps every image
        assert store.dirty_images() == images
        assert_same_answers(reference, tree, make_random_query(d=d, seed=seed))

        # A store write counts one buffer access, whatever the buffer.
        pid = tree.root.page_id
        accesses = store.buffer.stats.accesses
        store.write(pid, store.fetch_page(pid))
        assert store.buffer.stats.accesses == accesses + 1

        tree.flush()
        assert store.dirty_images() == {}
    finally:
        tree.close()

    reopened = GaussTree.open(path)
    try:
        assert len(reopened) == len(reference)
        reopened.check_invariants()
        assert sorted(v.key for v in reopened) == sorted(v.key for v in live)
        q = make_random_query(d=d, seed=seed)
        assert_same_answers(reference, reopened, q)
    finally:
        reopened.close()
