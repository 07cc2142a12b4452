"""Persistence round trips: save, reopen cold, answer identically.

The acceptance bar for the disk path: a tree saved and reopened in a
fresh :class:`~repro.storage.filestore.FilePageStore` must decode its
nodes from real page bytes and still produce the *same* MLIQ/TIQ matches,
posteriors (within 1e-9) and logical page-access counts as the in-memory
tree it was saved from.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.engine import MLIQ, TIQ, session_for
from repro.gausstree import gausstree_mliq, gausstree_mliq_many, gausstree_tiq
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.persist import read_header, save_tree
from repro.gausstree.tree import GaussTree
from repro.storage.buffer import BufferManager
from repro.storage.filestore import FilePageStore

from tests.conftest import lru_reference, make_random_db, make_random_query


def build_tree(db, degree=3, bulk=True):
    if bulk:
        return bulk_load(db.vectors, degree=degree, sigma_rule=db.sigma_rule)
    tree = GaussTree(dims=db.dims, degree=degree, sigma_rule=db.sigma_rule)
    tree.extend(db.vectors)
    return tree


class TestRoundTrip:
    @given(
        n=st.integers(2, 150),
        d=st.integers(1, 4),
        seed=st.integers(0, 1000),
        bulk=st.booleans(),
        k=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_mliq_matches_in_memory_tree(self, tmp_path_factory, n, d, seed, bulk, k):
        path = str(tmp_path_factory.mktemp("idx") / "tree.gauss")
        db = make_random_db(n=n, d=d, seed=seed)
        tree = build_tree(db, bulk=bulk)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            q = make_random_query(d=d, seed=seed + 1)
            mem, mem_stats = gausstree_mliq(tree, MLIQuery(q, k))
            disk, disk_stats = gausstree_mliq(reopened, MLIQuery(q, k))
            assert [m.key for m in mem] == [m.key for m in disk]
            for a, b in zip(mem, disk):
                assert b.probability == pytest.approx(a.probability, abs=1e-9)
                assert b.log_density == pytest.approx(a.log_density, abs=1e-9)
            assert disk_stats.pages_accessed == mem_stats.pages_accessed
            assert disk_stats.nodes_expanded == mem_stats.nodes_expanded
        finally:
            reopened.close()

    @given(
        n=st.integers(2, 120),
        d=st.integers(1, 3),
        seed=st.integers(0, 1000),
        p_theta=st.floats(0.01, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiq_matches_in_memory_tree(self, tmp_path_factory, n, d, seed, p_theta):
        path = str(tmp_path_factory.mktemp("idx") / "tree.gauss")
        db = make_random_db(n=n, d=d, seed=seed)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            q = make_random_query(d=d, seed=seed + 2)
            mem, mem_stats = gausstree_tiq(tree, ThresholdQuery(q, p_theta))
            disk, disk_stats = gausstree_tiq(
                reopened, ThresholdQuery(q, p_theta)
            )
            assert [m.key for m in mem] == [m.key for m in disk]
            for a, b in zip(mem, disk):
                assert b.probability == pytest.approx(a.probability, abs=1e-9)
            assert disk_stats.pages_accessed == mem_stats.pages_accessed
        finally:
            reopened.close()

    def test_structure_and_contents_survive(self, tmp_path):
        path = str(tmp_path / "tree.gauss")
        db = make_random_db(n=90, d=3, seed=5)
        tree = build_tree(db, bulk=False)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == len(tree)
            assert reopened.height == tree.height
            assert reopened.dims == tree.dims
            assert reopened.degree == tree.degree
            assert reopened.sigma_rule == tree.sigma_rule
            # Materializing the whole tree must reproduce every invariant
            # and the exact multiset of stored pfv.
            reopened.check_invariants()
            assert sorted(v.key for v in reopened) == sorted(
                v.key for v in tree
            )
            for mem_v, disk_v in zip(
                sorted(tree, key=lambda v: v.key),
                sorted(reopened, key=lambda v: v.key),
            ):
                assert np.array_equal(mem_v.mu, disk_v.mu)
                assert np.array_equal(mem_v.sigma, disk_v.sigma)
        finally:
            reopened.close()

    def test_nodes_decode_lazily_from_bytes(self, tmp_path):
        path = str(tmp_path / "tree.gauss")
        db = make_random_db(n=200, d=2, seed=9, sigma_low=0.01, sigma_high=0.05)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            # Only the root is materialized after open.
            root = reopened.root
            assert root.is_materialized
            stubs = [c for c in root.children if not c.is_materialized]
            assert stubs, "children of the root must start as stubs"
            # A rank-only point query materializes some subtrees, not all.
            q = db[17]
            gausstree_mliq(reopened, MLIQuery(q, 1), tolerance=0.25)
            remaining = [
                node
                for node in _iter_shallow(reopened.root)
                if not node.is_materialized
            ]
            assert remaining, "a 1-NN query should not touch every subtree"
        finally:
            reopened.close()

    def test_saving_opened_tree_onto_its_own_file(self, tmp_path):
        # The save must keep reading lazy leaf pages from the original
        # bytes while writing (temp file + rename), even when the target
        # is the very file backing the opened tree.
        path = str(tmp_path / "self.gauss")
        db = make_random_db(n=120, d=2, seed=27)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            reopened.save(path)  # nothing materialized but the root
        finally:
            reopened.close()
        again = GaussTree.open(path)
        try:
            q = make_random_query(d=2, seed=28)
            mem, _ = gausstree_mliq(tree, MLIQuery(q, 5))
            disk, _ = gausstree_mliq(again, MLIQuery(q, 5))
            assert [m.key for m in mem] == [m.key for m in disk]
            again.check_invariants()
        finally:
            again.close()

    def test_empty_tree_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.gauss")
        tree = GaussTree(dims=2, degree=3)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 0
            matches, stats = gausstree_mliq(
                reopened, MLIQuery(make_random_query(d=2), 1)
            )
            assert matches == []
            assert stats.pages_accessed == 0
        finally:
            reopened.close()

    def test_mixed_key_types_round_trip(self, tmp_path):
        path = str(tmp_path / "keys.gauss")
        rng = np.random.default_rng(3)
        keys = ["alpha", 7, None, 2.5, True, ("img", 3), ("a", ("b", 1)), False]
        tree = GaussTree(dims=2, degree=3)
        for key in keys:
            tree.insert(PFV(rng.uniform(0, 1, 2), rng.uniform(0.1, 0.3, 2), key=key))
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            stored = [v.key for v in reopened]
            assert sorted(stored, key=repr) == sorted(keys, key=repr)
            # bool/int/float must keep their exact types.
            assert any(k is True for k in stored)
            assert any(type(k) is int and k == 7 for k in stored)
            assert any(type(k) is float and k == 2.5 for k in stored)
        finally:
            reopened.close()

    def test_tuple_keys_distinguish_element_types(self, tmp_path):
        # (1,), (True,) and (1.0,) hash equal as tuples; the key table
        # must still give each its own slot so the round trip preserves
        # the exact key objects.
        path = str(tmp_path / "tuples.gauss")
        rng = np.random.default_rng(8)
        keys = [(1,), (True,), (1.0,), ("x", 0), ("x", False)]
        tree = GaussTree(dims=2, degree=3)
        for key in keys:
            tree.insert(
                PFV(rng.uniform(0, 1, 2), rng.uniform(0.1, 0.3, 2), key=key)
            )
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            stored = [v.key for v in reopened]
            assert sorted(map(repr, stored)) == sorted(map(repr, keys))
            types = sorted(
                type(k[0]).__name__ for k in stored if len(k) == 1
            )
            assert types == ["bool", "float", "int"]
        finally:
            reopened.close()

    def test_unsupported_key_fails_cleanly(self, tmp_path):
        tree = GaussTree(dims=1, degree=2)
        tree.insert(PFV([0.5], [0.1], key=frozenset({1})))
        with pytest.raises(TypeError, match="cannot persist key"):
            tree.save(str(tmp_path / "bad.gauss"))

    def test_batch_queries_on_reopened_tree(self, tmp_path):
        path = str(tmp_path / "batch.gauss")
        db = make_random_db(n=150, d=3, seed=21)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            queries = [
                MLIQuery(make_random_query(d=3, seed=500 + i), 3)
                for i in range(20)
            ]
            batch, _ = gausstree_mliq_many(reopened, queries)
            for query, matches in zip(queries, batch):
                mem, _ = gausstree_mliq(tree, query)
                assert [m.key for m in mem] == [m.key for m in matches]
                for a, b in zip(mem, matches):
                    assert b.probability == pytest.approx(
                        a.probability, abs=1e-9
                    )
        finally:
            reopened.close()


def _iter_shallow(node):
    """Iterate materialized parts of the tree without forcing stubs."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if not current.is_leaf and current.is_materialized:
            stack.extend(current._children)


def _materialized(tree) -> int:
    return sum(node.is_materialized for node in _iter_shallow(tree.root))


class TestHeight:
    def test_explain_on_a_fresh_open_decodes_only_what_the_census_reads(
        self, tmp_path
    ):
        # The height of a disk tree comes from its header: walking the
        # left spine would decode the inner stubs on it.
        path = str(tmp_path / "tall.gauss")
        db = make_random_db(n=300, d=2, seed=17)
        tree = build_tree(db)
        assert tree.height >= 4
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            assert _materialized(reopened) == 1  # the root
            assert reopened.height == tree.height
            q = make_random_query(d=2, seed=18)
            session_for(reopened).explain(TIQ(q, 0.2))
            assert _materialized(reopened) == 1
            # A k-MLIQ's explain takes the leaf-hull census the query
            # will take: it decodes the inner pages, which hold the leaf
            # rectangles, and the one leaf it refines, and it counts no
            # page access.
            reopened.store.begin_query()
            session_for(reopened).explain(MLIQ(q, 3))
            assert reopened.store.log.pages_accessed == 0
            leaves = [
                node
                for node in _iter_shallow(reopened.root)
                if node.is_leaf and node.is_materialized
            ]
            assert len(leaves) == 1
        finally:
            reopened.close()


class TestFileFormat:
    def test_header_fields(self, tmp_path):
        path = str(tmp_path / "h.gauss")
        db = make_random_db(n=60, d=2, seed=1)
        tree = build_tree(db)
        tree.save(path)
        meta = read_header(path)
        assert meta["dims"] == 2
        assert meta["degree"] == tree.degree
        assert meta["n_objects"] == 60
        assert meta["height"] == tree.height
        assert meta["page_count"] == sum(1 for _ in tree.nodes())
        assert meta["page_size"] == tree.layout.page_size
        size = os.path.getsize(path)
        assert size == meta["key_table_offset"] + meta["key_table_bytes"]

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an index" * 10)
        with pytest.raises(ValueError, match="not a Gauss-tree index"):
            GaussTree.open(str(path))

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"GT")
        with pytest.raises(ValueError, match="not a Gauss-tree index"):
            GaussTree.open(str(path))

    def test_rejects_corrupt_header_geometry(self, tmp_path):
        import struct

        path = str(tmp_path / "corrupt.gauss")
        db = make_random_db(n=40, d=2, seed=4)
        build_tree(db).save(path)
        # Stomp page_count (offset: 8s+H+I+I+I+B+H+I = 28) with a huge
        # value; open must fail with a clear error, not allocate gigabytes
        # or die later with an opaque KeyError.
        with open(path, "r+b") as f:
            f.seek(28)
            f.write(struct.pack("<I", 0xFFFF_FFF0))
        with pytest.raises(ValueError, match="corrupt index header"):
            GaussTree.open(path)

    def test_degree_exceeding_layout_fails(self, tmp_path):
        db = make_random_db(n=10, d=2, seed=2)
        tree = GaussTree(dims=2, degree=500)  # 1000 leaf slots > 8K page
        tree.extend(db.vectors)
        with pytest.raises(ValueError, match="leaf entries"):
            save_tree(tree, str(tmp_path / "big.gauss"))

    def test_reopened_tree_is_read_only(self, tmp_path):
        path = str(tmp_path / "ro.gauss")
        db = make_random_db(n=30, d=2, seed=3)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            with pytest.raises(RuntimeError, match="read-only"):
                reopened.insert(db[0])
            with pytest.raises(RuntimeError, match="read-only"):
                reopened.delete(db[0])
        finally:
            reopened.close()


class TestFilePageStore:
    def test_buffer_eviction_drops_frames(self, tmp_path):
        path = str(tmp_path / "evict.gauss")
        db = make_random_db(n=200, d=2, seed=11)
        tree = build_tree(db)
        tree.save(path)
        # A 4-page cache on a multi-level tree forces evictions mid-query.
        reopened = GaussTree.open(path, buffer=BufferManager(4))
        try:
            q = make_random_query(d=2, seed=12)
            mem, mem_stats = gausstree_mliq(tree, MLIQuery(q, 5))
            disk, disk_stats = gausstree_mliq(reopened, MLIQuery(q, 5))
            assert [m.key for m in mem] == [m.key for m in disk]
            assert disk_stats.pages_accessed == mem_stats.pages_accessed
            store = reopened.store
            assert store.buffer.stats.evictions > 0
            assert len(store._frames) <= 4
            assert set(store._frames) == set(
                pid for pid in store._frames if store.buffer.contains(pid)
            )
        finally:
            reopened.close()

    @pytest.mark.parametrize("capacity", [0, 3, 1 << 20])
    def test_read_many_keeps_frames_of_the_resident_pages_read(
        self, tmp_path, capacity
    ):
        # Counters and LRU order are the page store's (see
        # tests/storage/test_pagestore.py); the frame cache must hold
        # the file's bytes of exactly the pages left resident, cold and
        # warm, though a 3-page buffer evicts pages inside one call.
        path = str(tmp_path / "many.gauss")
        build_tree(make_random_db(n=120, d=2, seed=15)).save(path)
        meta = read_header(path)
        size = meta["page_size"]
        with open(path, "rb") as f:
            data = f.read()
        store = FilePageStore(
            path,
            size,
            allocated_pages=meta["page_count"],
            buffer=BufferManager(capacity),
        )
        pages = list(range(1, meta["page_count"] + 1))
        sequence = pages + pages[::2] + pages[:3]
        try:
            for _ in range(2):  # cold, then warm
                store.begin_query()
                before = list(store.buffer._resident)
                store.read_many(sequence)
                order, faults, _ = lru_reference(sequence, capacity, before)
                assert list(store.buffer._resident) == order
                assert store.log.page_faults == faults
                assert store._frames == {
                    pid: data[pid * size : (pid + 1) * size] for pid in order
                }
            assert store.read(pages[0]) == data[size : 2 * size]
        finally:
            store.close()

    def test_a_warm_sweep_reads_no_page_bytes(self, tmp_path):
        # A warm sweep's pages are all resident, so read_many counts them
        # in one step; each already has its frame, so no page is read
        # from the file, and the frames and the LRU order are those of
        # one read per page of the same counted reads.
        from repro.data.synthetic import uniform_pfv_dataset

        path = str(tmp_path / "warm.gauss")
        db = uniform_pfv_dataset(n=2500, d=8, seed=8)
        bulk_load(db.vectors, degree=8, sigma_rule=db.sigma_rule).save(path)
        tree = GaussTree.open(path)
        reference = FilePageStore(
            path,
            tree.store.page_size,
            allocated_pages=tree.store.page_count,
        )
        store = tree.store
        counted, file_reads, one_step = [], [], []
        read, read_many = store.read, store.read_many
        read_from_file = store._read_from_file

        def one(page_id):
            counted.append(page_id)
            return read(page_id)

        def many(page_ids):
            counted.extend(page_ids)
            one_step.append(read_many(page_ids))
            return one_step[-1]

        def from_file(page_id):
            file_reads.append(page_id)
            return read_from_file(page_id)

        store.read, store.read_many = one, many
        store._read_from_file = from_file
        try:
            query = MLIQuery(make_random_query(d=8, seed=9), 3)
            for warm in (False, True):
                del file_reads[:]
                _, stats = gausstree_mliq(tree, query)
                assert (stats.swept, stats.page_faults > 0) == (1, not warm)
            assert file_reads == []
            assert one_step == [False, True]
            for page_id in counted:
                reference.read(page_id)
            assert store._frames == reference._frames
            assert list(store.buffer._resident) == list(
                reference.buffer._resident
            )
        finally:
            reference.close()
            tree.close()

    def test_sharing_a_buffer_across_stores_is_rejected(self, tmp_path):
        # Buffer residency is keyed by file-local page ids, so one buffer
        # serving two index files would count one file's cold reads as
        # the other's hits; the second open must fail fast instead.
        path_a = str(tmp_path / "a.gauss")
        path_b = str(tmp_path / "b.gauss")
        build_tree(make_random_db(n=120, d=2, seed=31)).save(path_a)
        build_tree(make_random_db(n=120, d=2, seed=32)).save(path_b)
        shared = BufferManager(2)
        tree_a = GaussTree.open(path_a, buffer=shared)
        try:
            with pytest.raises(ValueError, match="needs its own buffer"):
                GaussTree.open(path_b, buffer=shared)
        finally:
            tree_a.close()
        # Closed stores detach their listeners, so sequential reuse of
        # one buffer across open/close cycles stays legal and leak-free.
        assert shared._evict_listeners == []
        for _ in range(3):
            t = GaussTree.open(path_a, buffer=shared)
            t.close()
        assert shared._evict_listeners == []

    def test_cold_start_still_serves_reads(self, tmp_path):
        path = str(tmp_path / "cold.gauss")
        db = make_random_db(n=80, d=2, seed=13)
        tree = build_tree(db)
        tree.save(path)
        reopened = GaussTree.open(path)
        try:
            q = make_random_query(d=2, seed=14)
            first, warm_stats = gausstree_mliq(reopened, MLIQuery(q, 3))
            reopened.store.cold_start()
            assert reopened.store._frames == {}
            second, cold_stats = gausstree_mliq(reopened, MLIQuery(q, 3))
            assert [m.key for m in first] == [m.key for m in second]
            assert cold_stats.page_faults >= warm_stats.page_faults
            assert cold_stats.page_faults == cold_stats.pages_accessed
        finally:
            reopened.close()

    def test_unallocated_page_read_fails(self, tmp_path):
        path = str(tmp_path / "alloc.gauss")
        db = make_random_db(n=30, d=2, seed=15)
        build_tree(db).save(path)
        reopened = GaussTree.open(path)
        try:
            with pytest.raises(KeyError):
                reopened.store.read(10_000)
        finally:
            reopened.close()
