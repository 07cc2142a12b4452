"""Durability of the writable disk-opened Gauss-tree.

The acceptance bar of the write path is stated as two properties and
enforced here with hypothesis:

* **Crash prefix-consistency** — for a random insert (or insert/delete)
  workload and a random crash point measured in written bytes, killing
  the writer mid-flight and reopening the index always recovers, and
  the recovered tree equals an in-memory replay of exactly the
  operations that completed before the crash (every completed operation
  is fsync-durable; the one in flight is torn away by WAL replay).
* **Mutate-then-query equivalence** — interleaved inserts, deletes and
  queries on a writable opened tree answer identically to a fresh
  in-memory tree holding the same surviving objects, and after a
  checkpoint the reopened tree reports the *same logical page-access
  counts* as the live writable tree.

Crash points are injected with :mod:`repro.storage.fault`; budgets are
drawn small enough to die inside the very first WAL record and large
enough to survive the whole workload, so commit boundaries, torn page
images, torn commits, checkpoints and recovery itself all get hit.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.gausstree import gausstree_mliq, gausstree_tiq
from repro.gausstree.persist import read_header, save_tree
from repro.gausstree.tree import GaussTree
from repro.storage.fault import FaultInjector, InjectedCrash
from repro.storage.wal import WriteAheadLog

from tests.conftest import make_random_query


def make_vectors(rng, n, d, tag):
    return [
        PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(0.05, 0.4, d),
            key=(tag, i),
        )
        for i in range(n)
    ]


def build_saved(path, base, d, degree=3):
    tree = GaussTree(dims=d, degree=degree)
    tree.extend(base)
    tree.save(path)
    return tree


def assert_same_answers(expected_tree, actual_tree, d, seed, k=5, theta=0.2):
    """MLIQ and TIQ agreement; exact key order (same structure) is not
    assumed — posteriors are a property of the object *set*."""
    q = make_random_query(d=d, seed=seed)
    exp, _ = gausstree_mliq(expected_tree, MLIQuery(q, k))
    act, _ = gausstree_mliq(actual_tree, MLIQuery(q, k))
    assert {m.key for m in exp} == {m.key for m in act}
    exp_p = {m.key: m.probability for m in exp}
    for m in act:
        assert m.probability == pytest.approx(exp_p[m.key], abs=1e-9)
    exp_t, _ = gausstree_tiq(expected_tree, ThresholdQuery(q, theta))
    act_t, _ = gausstree_tiq(actual_tree, ThresholdQuery(q, theta))
    assert {m.key for m in exp_t} == {m.key for m in act_t}


class TestCrashRecovery:
    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        n_base=st.integers(0, 30),
        n_extra=st.integers(1, 20),
        budget=st.integers(1, 250_000),
    )
    @settings(deadline=None)  # example budget comes from the active profile
    def test_crash_during_inserts_recovers_durable_prefix(
        self, tmp_path_factory, d, seed, n_base, n_extra, budget
    ):
        path = str(tmp_path_factory.mktemp("crash") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        extra = make_vectors(rng, n_extra, d, "extra")
        build_saved(path, base, d)

        injector = FaultInjector(budget)
        completed = 0
        writable = None
        try:
            writable = GaussTree.open(
                path, writable=True, file_factory=injector.open
            )
            for v in extra:
                writable.insert(v)
                completed += 1
            writable.flush()
        except InjectedCrash:
            pass
        finally:
            if writable is not None:
                writable.close(checkpoint=False)

        recovered = GaussTree.open(path)
        try:
            # Every completed insert was committed and (in the
            # written-bytes-are-durable fault model) is recoverable;
            # the torn one vanishes: an exact prefix.
            assert len(recovered) == n_base + completed
            recovered.check_invariants()
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in base + extra[:completed]
            )
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base + extra[:completed])
            assert_same_answers(replay, recovered, d, seed + 1)
        finally:
            recovered.close()

    @given(
        d=st.integers(1, 2),
        seed=st.integers(0, 10_000),
        n_base=st.integers(4, 25),
        budget=st.integers(1, 400_000),
        ops=st.lists(st.integers(0, 2), min_size=1, max_size=18),
    )
    @settings(deadline=None)
    def test_crash_during_mixed_ops_recovers_a_replayable_prefix(
        self, tmp_path_factory, d, seed, n_base, budget, ops
    ):
        """Inserts *and* deletes: the durable prefix must replay to the
        same object set and answers, including condense/reinsert ops
        whose WAL transactions span many pages."""
        path = str(tmp_path_factory.mktemp("mixed") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        fresh = iter(make_vectors(rng, len(ops), d, "fresh"))
        build_saved(path, base, d)

        injector = FaultInjector(budget)
        applied: list[tuple[str, PFV]] = []
        writable = None
        try:
            writable = GaussTree.open(
                path, writable=True, file_factory=injector.open
            )
            alive = list(base)
            for op in ops:
                if op < 2 or not alive:  # bias 2:1 toward inserts
                    v = next(fresh)
                    writable.insert(v)
                    applied.append(("insert", v))
                    alive.append(v)
                else:
                    victim = alive.pop(int(rng.integers(len(alive))))
                    assert writable.delete(victim)
                    applied.append(("delete", victim))
        except InjectedCrash:
            # The op in flight did not complete: drop it from the replay.
            pass
        finally:
            if writable is not None:
                writable.close(checkpoint=False)

        recovered = GaussTree.open(path)
        try:
            recovered.check_invariants()
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base)
            for kind, v in applied[: len(applied)]:
                if kind == "insert":
                    replay.insert(v)
                else:
                    assert replay.delete(v)
            # The crash may have torn the last *uncompleted* op only.
            assert len(recovered) == len(replay)
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in replay
            )
            assert_same_answers(replay, recovered, d, seed + 2)
        finally:
            recovered.close()

    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        n_base=st.integers(0, 25),
        batch_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        budget=st.integers(1, 300_000),
    )
    @settings(deadline=None)
    def test_group_commit_batches_recover_all_or_nothing(
        self, tmp_path_factory, d, seed, n_base, batch_sizes, budget
    ):
        """A torn write inside a batched WAL transaction must discard
        the *whole* batch: recovery yields exactly the fully committed
        batch prefix, never a partial batch (the group's single COMMIT
        is the only thing that makes any of it durable)."""
        path = str(tmp_path_factory.mktemp("group") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        build_saved(path, base, d)
        batches = []
        for b, size in enumerate(batch_sizes):
            batches.append(make_vectors(rng, size, d, f"batch{b}"))

        injector = FaultInjector(budget)
        committed_batches = 0
        writable = None
        try:
            writable = GaussTree.open(
                path, writable=True, file_factory=injector.open
            )
            for batch in batches:
                writable.insert_many(batch)
                committed_batches += 1
        except InjectedCrash:
            pass  # the batch in flight is torn away whole
        finally:
            if writable is not None:
                writable.close(checkpoint=False)

        recovered = GaussTree.open(path)
        try:
            survivors = [
                v for batch in batches[:committed_batches] for v in batch
            ]
            # All-or-nothing per batch: the recovered key set is the
            # base plus exactly the complete committed batches — a
            # partial batch would show up as a key-count mismatch here.
            assert len(recovered) == n_base + len(survivors)
            recovered.check_invariants()
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in base + survivors
            )
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base + survivors)
            assert_same_answers(replay, recovered, d, seed + 3)
        finally:
            recovered.close()

    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        n_base=st.integers(0, 30),
        ops=st.lists(st.integers(0, 2), min_size=1, max_size=18),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_crash_at_any_byte_the_workload_writes_recovers_a_prefix(
        self, tmp_path_factory, d, seed, n_base, ops, data
    ):
        """The budget is drawn from the bytes the same workload writes
        uncrashed, so every example dies inside it: in a WAL append (row
        edits, page images, keys, header), in the checkpoint's
        ``CKPT_BASE`` or in the publish of its generation. The fixed
        budgets above were sized when every write logged two 8 KiB
        pages; a row edit logs about 200 bytes, so more of their draws
        outlast the whole workload."""
        path = str(tmp_path_factory.mktemp("budget") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        fresh = make_vectors(rng, len(ops), d, "fresh")
        picks = rng.integers(0, 1 << 30, len(ops)).tolist()
        build_saved(path, base, d)
        with open(path, "rb") as f:
            saved = f.read()

        def run(injector):
            """The workload, then a checkpoint; the completed ops."""
            applied: list[tuple[str, PFV]] = []
            writable = None
            try:
                writable = GaussTree.open(
                    path, writable=True, file_factory=injector.open
                )
                alive, unused = list(base), iter(fresh)
                for op, pick in zip(ops, picks):
                    if op < 2 or not alive:  # bias 2:1 toward inserts
                        v = next(unused)
                        writable.insert(v)
                        applied.append(("insert", v))
                        alive.append(v)
                    else:
                        victim = alive.pop(pick % len(alive))
                        assert writable.delete(victim)
                        applied.append(("delete", victim))
                writable.flush()
            except InjectedCrash:
                pass
            finally:
                if writable is not None:
                    writable.close(checkpoint=False)
            return applied

        unlimited = 1 << 40
        dry = FaultInjector(unlimited)
        run(dry)
        written = unlimited - dry.remaining
        with open(path, "wb") as f:  # back to the saved file, no WAL
            f.write(saved)
        os.unlink(path + ".wal")
        injector = FaultInjector(
            data.draw(st.integers(0, written - 1), label="budget")
        )
        applied = run(injector)
        assert injector.crashed

        recovered = GaussTree.open(path)
        try:
            recovered.check_invariants()
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base)
            for kind, v in applied:
                if kind == "insert":
                    replay.insert(v)
                else:
                    assert replay.delete(v)
            assert len(recovered) == len(replay)
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in replay
            )
            assert_same_answers(replay, recovered, d, seed + 4)
        finally:
            recovered.close()

    @given(seed=st.integers(0, 10_000), budget=st.integers(1, 120_000))
    @settings(deadline=None)
    def test_crash_during_checkpoint_loses_nothing(
        self, tmp_path_factory, seed, budget
    ):
        """Once an op committed, a crash inside flush() cannot undo it:
        the WAL's CKPT_BASE snapshot makes replay independent of the
        half-rewritten main file."""
        d = 2
        path = str(tmp_path_factory.mktemp("ckpt") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, 15, d, "base")
        extra = make_vectors(rng, 8, d, "extra")
        build_saved(path, base, d)
        writable = GaussTree.open(path, writable=True)
        for v in extra:
            writable.insert(v)
        # Swap crash injection in *after* the inserts so the budget is
        # spent inside the checkpoint's own writes.
        injector = FaultInjector(budget)
        store_file = writable.store._file
        wal_file = writable._writer.wal._file
        from repro.storage.fault import FaultyFile

        writable.store._file = FaultyFile(store_file, injector)
        writable._writer.wal._file = FaultyFile(wal_file, injector)
        crashed = False
        try:
            writable.flush()
        except InjectedCrash:
            crashed = True
        finally:
            writable.close(checkpoint=False)

        recovered = GaussTree.open(path)
        try:
            assert len(recovered) == len(base) + len(extra)
            recovered.check_invariants()
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base + extra)
            assert_same_answers(replay, recovered, d, seed + 3)
        finally:
            recovered.close()
        # With a tiny budget the checkpoint must actually have died —
        # guard against the test silently not exercising the crash.
        if budget < 1000:
            assert crashed

    @given(seed=st.integers(0, 10_000), budget=st.integers(1, 60_000))
    @settings(deadline=None)
    def test_crash_during_recovery_recovers_on_retry(
        self, tmp_path_factory, seed, budget
    ):
        """Recovery is idempotent: kill it mid-replay, run it again."""
        d = 2
        path = str(tmp_path_factory.mktemp("rec") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, 10, d, "base")
        extra = make_vectors(rng, 6, d, "extra")
        build_saved(path, base, d)
        writable = GaussTree.open(path, writable=True)
        for v in extra:
            writable.insert(v)
        writable.close(checkpoint=False)  # leave everything in the WAL

        injector = FaultInjector(budget)
        try:
            crashed_open = GaussTree.open(path, file_factory=injector.open)
            crashed_open.close()
        except InjectedCrash:
            pass

        recovered = GaussTree.open(path)  # real files: replay completes
        try:
            assert len(recovered) == len(base) + len(extra)
            recovered.check_invariants()
        finally:
            recovered.close()


class TestMutateQueryEquivalence:
    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        n_base=st.integers(2, 40),
        ops=st.lists(st.integers(0, 3), min_size=1, max_size=25),
    )
    @settings(deadline=None)
    def test_interleaved_ops_match_in_memory_tree(
        self, tmp_path_factory, d, seed, n_base, ops
    ):
        path = str(tmp_path_factory.mktemp("equiv") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        fresh = iter(make_vectors(rng, len(ops), d, "fresh"))
        build_saved(path, base, d)
        writable = GaussTree.open(path, writable=True, fsync=False)
        try:
            alive = list(base)
            query_round = 0
            for op in ops:
                if op <= 1 or not alive:
                    v = next(fresh)
                    writable.insert(v)
                    alive.append(v)
                elif op == 2:
                    victim = alive.pop(int(rng.integers(len(alive))))
                    assert writable.delete(victim)
                else:
                    query_round += 1
                    reference = GaussTree(dims=d, degree=3)
                    reference.extend(alive)
                    assert len(writable) == len(alive)
                    assert_same_answers(
                        reference, writable, d, seed + query_round
                    )
            writable.check_invariants()
            final_reference = GaussTree(dims=d, degree=3)
            final_reference.extend(alive)
            assert_same_answers(final_reference, writable, d, seed + 99)

            # Write-back consistency: checkpoint, reopen cold, and the
            # reopened tree must answer identically *with identical
            # logical page-access counts* to the live writable tree.
            writable.flush()
            reopened = GaussTree.open(path)
            try:
                assert sorted(v.key for v in reopened) == sorted(
                    v.key for v in alive
                )
                q = make_random_query(d=d, seed=seed + 7)
                writable.store.cold_start()
                live_matches, live_stats = gausstree_mliq(
                    writable, MLIQuery(q, 4)
                )
                reopened.store.cold_start()
                disk_matches, disk_stats = gausstree_mliq(
                    reopened, MLIQuery(q, 4)
                )
                assert [m.key for m in live_matches] == [
                    m.key for m in disk_matches
                ]
                assert (
                    disk_stats.pages_accessed == live_stats.pages_accessed
                )
                assert disk_stats.nodes_expanded == live_stats.nodes_expanded
            finally:
                reopened.close()
        finally:
            writable.close()


class TestHeight:
    def test_height_follows_the_tree_as_it_grows_and_shrinks(self, tmp_path):
        # A writable disk tree reports the height its writer keeps for
        # the header; it must match the structure after every insert and
        # delete, root splits and root collapses included.
        path = str(tmp_path / "height.gauss")
        rng = np.random.default_rng(23)
        base = make_vectors(rng, 3, 2, "base")
        build_saved(path, base, 2, degree=2)
        extra = make_vectors(rng, 60, 2, "new")
        heights = []
        tree = GaussTree.open(path, writable=True, fsync=False)
        try:
            assert tree.height == 1
            for v in extra[:40]:
                tree.insert(v)
                assert tree.height == tree._spine_height()
                heights.append(tree.height)
            tree.insert_many(extra[40:])
            assert tree.height == tree._spine_height()
            tree.flush()
            reopened = GaussTree.open(path)
            assert reopened.height == tree.height
            reopened.close()
            for v in base + extra:
                assert tree.delete(v)
                assert tree.height == tree._spine_height()
                heights.append(tree.height)
        finally:
            tree.close()
        assert max(heights) >= 4
        assert heights[-1] == 1
        reopened = GaussTree.open(path)
        assert reopened.height == 1
        reopened.close()


class TestWritableLifecycle:
    def test_v1_files_still_open_read_only(self, tmp_path):
        import struct

        path = str(tmp_path / "v1.gauss")
        rng = np.random.default_rng(3)
        base = make_vectors(rng, 30, 2, "b")
        mem = GaussTree(dims=2, degree=3)
        mem.extend(base)
        mem.save(path, version=2)  # v1 files hold interleaved leaf pages
        # A v2 file with an empty free list is byte-compatible with v1
        # except for the version field: rewrite it to forge a PR-1 file.
        with open(path, "r+b") as f:
            f.seek(8)
            f.write(struct.pack("<H", 1))
        meta = read_header(path)
        assert meta["version"] == 1
        assert meta["free_pages"] == ()
        reopened = GaussTree.open(path)
        try:
            assert reopened.read_only
            assert_same_answers(mem, reopened, 2, seed=11)
            with pytest.raises(RuntimeError, match="read-only"):
                reopened.insert(base[0])
        finally:
            reopened.close()
        with pytest.raises(ValueError, match="format v1"):
            GaussTree.open(path, writable=True)

    def test_default_open_stays_read_only(self, tmp_path):
        path = str(tmp_path / "ro.gauss")
        rng = np.random.default_rng(5)
        build_saved(path, make_vectors(rng, 20, 2, "b"), 2)
        reopened = GaussTree.open(path)
        try:
            with pytest.raises(RuntimeError, match="read-only"):
                reopened.insert(
                    PFV(np.array([0.5, 0.5]), np.array([0.1, 0.1]), key="x")
                )
        finally:
            reopened.close()

    def test_open_close_without_ops_leaves_file_untouched(self, tmp_path):
        path = str(tmp_path / "idle.gauss")
        rng = np.random.default_rng(6)
        build_saved(path, make_vectors(rng, 25, 2, "b"), 2)
        before = open(path, "rb").read()
        tree = GaussTree.open(path, writable=True)
        tree.close()
        assert open(path, "rb").read() == before

    def test_deletes_populate_free_list_and_splits_reuse_it(self, tmp_path):
        path = str(tmp_path / "free.gauss")
        rng = np.random.default_rng(7)
        base = make_vectors(rng, 120, 2, "b")
        build_saved(path, base, 2)
        original_pages = read_header(path)["page_count"]

        tree = GaussTree.open(path, writable=True, fsync=False)
        for v in base[:70]:
            assert tree.delete(v)
        tree.flush()
        meta = read_header(path)
        assert meta["free_pages"], "node dissolution must free pages"
        freed = len(meta["free_pages"])
        # page_count is a high-water mark: deletes never grow the file.
        assert meta["page_count"] <= original_pages

        replacement = make_vectors(rng, 70, 2, "r")
        for v in replacement:
            tree.insert(v)
        tree.flush()
        after = read_header(path)
        # Same population as the start: reuse must keep the file from
        # growing beyond its original footprint plus at most the freed
        # ids that were dropped from the capped list (none here).
        assert len(after["free_pages"]) < max(freed, 1)
        assert after["page_count"] <= original_pages + 1
        tree.close()

        reopened = GaussTree.open(path)
        try:
            reopened.check_invariants()
            assert len(reopened) == 120
        finally:
            reopened.close()

    def test_unsupported_key_fails_before_mutating(self, tmp_path):
        path = str(tmp_path / "badkey.gauss")
        rng = np.random.default_rng(8)
        build_saved(path, make_vectors(rng, 12, 2, "b"), 2)
        tree = GaussTree.open(path, writable=True)
        try:
            with pytest.raises(TypeError, match="cannot persist key"):
                tree.insert(
                    PFV(
                        np.array([0.5, 0.5]),
                        np.array([0.1, 0.1]),
                        key=frozenset({1}),
                    )
                )
            assert len(tree) == 12  # nothing half-applied
            tree.insert(
                PFV(np.array([0.5, 0.5]), np.array([0.1, 0.1]), key="fine")
            )
        finally:
            tree.close()
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 13
        finally:
            reopened.close()


class TestSaveFlushesWal:
    def test_save_with_pending_dirty_pages_flushes_the_wal_first(
        self, tmp_path
    ):
        """Regression: GaussTree.save on a writable tree must checkpoint
        before replacing the file. Without the flush, the old WAL (stale
        page ids into the *new* compacted file) survives the save and is
        replayed on the next open, corrupting the index — exactly what
        save_tree alone does."""
        path = str(tmp_path / "race.gauss")
        rng = np.random.default_rng(9)
        base = make_vectors(rng, 40, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        extra = make_vectors(rng, 25, 2, "x")
        for v in extra:
            tree.insert(v)
        # Pending state: committed WAL transactions, dirty pages, stale
        # main file. save() must flush all of it before compacting.
        assert not tree._writer.wal.is_empty
        tree.save(path)
        assert tree._writer.wal.is_empty
        tree.close()
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 65
            reopened.check_invariants()
        finally:
            reopened.close()

    def test_raw_save_tree_leaves_no_replayable_wal_behind(self, tmp_path):
        """Defense in depth below GaussTree.save: a raw save_tree over a
        *held* index is refused outright (it would race the writer), and
        over a released index it clears the stale WAL whose page images
        would otherwise replay over the freshly compacted file."""
        import sys

        path = str(tmp_path / "hazard.gauss")
        rng = np.random.default_rng(10)
        base = make_vectors(rng, 40, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        for v in make_vectors(rng, 25, 2, "x"):
            tree.insert(v)
        assert WriteAheadLog.scan(path + ".wal")
        if sys.platform != "win32":
            with pytest.raises(RuntimeError, match="open writable"):
                save_tree(tree, path)  # held by our own writer: refused
        assert len(list(tree)) == 65  # materialize before the store closes
        tree.close(checkpoint=False)  # release; stale WAL stays behind
        assert WriteAheadLog.scan(path + ".wal")
        save_tree(tree, path)  # no live writer now: compact + clear WAL
        assert WriteAheadLog.scan(path + ".wal") == []
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 65
            reopened.check_invariants()
        finally:
            reopened.close()

    def test_writable_tree_survives_in_place_save_and_keeps_writing(
        self, tmp_path
    ):
        path = str(tmp_path / "inplace.gauss")
        rng = np.random.default_rng(11)
        base = make_vectors(rng, 50, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        first = make_vectors(rng, 20, 2, "f")
        for v in first:
            tree.insert(v)
        tree.save(path)  # compacting in-place save rebinds page ids
        second = make_vectors(rng, 15, 2, "s")
        for v in second:
            tree.insert(v)
        assert tree.delete(base[0])
        tree.close()
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 50 + 20 + 15 - 1
            reopened.check_invariants()
            reference = GaussTree(dims=2, degree=3)
            reference.extend(base[1:] + first + second)
            assert_same_answers(reference, reopened, 2, seed=12)
        finally:
            reopened.close()

    def test_in_place_save_drops_the_stale_leaf_directory(self, tmp_path):
        # The leaf directory names leaves, leaf parents and node pages by
        # page id. A compacting in-place save renumbers the pages, so a
        # directory kept across it would hand a traversal another node's
        # child bounds and a sweep another tree's pages.
        path = str(tmp_path / "hulls.gauss")
        rng = np.random.default_rng(13)
        base = make_vectors(rng, 120, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        try:
            extra = make_vectors(rng, 80, 2, "x")
            tree.insert_many(extra)
            before = tree.leaf_directory()
            assert before.page_ids  # built before the save renumbers
            tree.save(path)
            parents = {
                node.page_id
                for node in tree.nodes()
                if not node.is_leaf and node.children[0].is_leaf
            }
            assert set(before.spans) != parents  # the save renumbered
            directory = tree.leaf_directory()
            assert directory is not before
            assert set(directory.spans) == parents
            assert directory.page_ids == [node.page_id for node in tree.nodes()]
            assert {leaf.page_id for leaf in directory.leaves} == {
                leaf.page_id for leaf in tree.leaves()
            }
            reference = GaussTree(dims=2, degree=3)
            reference.extend(base + extra)
            assert_same_answers(reference, tree, 2, seed=14)
        finally:
            tree.close()

    def test_plain_save_tree_clears_a_stale_foreign_wal(self, tmp_path):
        """Rebuilding an index over a path whose previous writable
        session left a WAL behind (e.g. `repro insert --no-flush` then
        `repro build`) must not let the stale WAL replay over the fresh
        file on the next open."""
        path = str(tmp_path / "rebuild.gauss")
        rng = np.random.default_rng(15)
        base = make_vectors(rng, 30, 2, "b")
        build_saved(path, base, 2)
        stale_writer = GaussTree.open(path, writable=True)
        for v in make_vectors(rng, 10, 2, "x"):
            stale_writer.insert(v)
        stale_writer.close(checkpoint=False)  # state rides in the WAL
        assert WriteAheadLog.scan(path + ".wal")
        # A completely unrelated rebuild over the same path...
        replacement = make_vectors(rng, 20, 2, "new")
        fresh = GaussTree(dims=2, degree=3)
        fresh.extend(replacement)
        save_tree(fresh, path)
        # ...must leave nothing for recovery to replay.
        assert WriteAheadLog.scan(path + ".wal") == []
        reopened = GaussTree.open(path)
        try:
            assert sorted(v.key for v in reopened) == sorted(
                v.key for v in replacement
            )
            reopened.check_invariants()
        finally:
            reopened.close()

    def test_failed_rollback_is_retried_before_the_next_commit(
        self, tmp_path
    ):
        """If a commit *and* its WAL rollback both fail (disk full), a
        later commit must not append behind the torn bytes — recovery
        would discard it despite the acknowledged fsync."""
        path = str(tmp_path / "poison.gauss")
        rng = np.random.default_rng(16)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        writer = tree._writer

        class _DiskFull(OSError):
            pass

        real_file = writer.wal._file

        class _FailingTail:
            """Tears one write mid-record, fails everything (rollback
            included) until healed, then behaves like the real file."""

            def __init__(self) -> None:
                self.state = "tear"

            def write(self, data):
                if self.state == "tear":
                    self.state = "dead"
                    return real_file.write(data[: max(1, len(data) // 2)])
                if self.state == "dead":
                    raise _DiskFull("no space")
                return real_file.write(data)

            def truncate(self, size=None):
                if self.state == "dead":
                    raise _DiskFull("no space")
                return real_file.truncate(size)

            def __getattr__(self, name):
                return getattr(real_file, name)

        failing = _FailingTail()
        writer.wal._file = failing
        with pytest.raises(_DiskFull):
            tree.insert(
                PFV(np.array([0.5, 0.5]), np.array([0.1, 0.1]), key="lost")
            )
        assert writer._pending_rollback is not None
        # "Space freed": writes work again; the next insert must first
        # re-truncate the torn tail, then commit reachable records.
        failing.state = "ok"
        tree.insert(
            PFV(np.array([0.6, 0.6]), np.array([0.1, 0.1]), key="durable")
        )
        assert writer._pending_rollback is None
        tree.close(checkpoint=False)
        recovered = GaussTree.open(path)
        try:
            keys = {v.key for v in recovered}
            assert "durable" in keys
        finally:
            recovered.close()

    def test_a_torn_checkpoint_seal_is_rolled_back(self, tmp_path):
        """A checkpoint whose ``CKPT_BASE`` transaction tears mid-append
        must not leave the torn bytes in front of the writer's next
        commit: recovery stops at the first torn record, so it would
        lose an insert that had returned."""
        from repro.storage.fault import FaultyFile

        path = str(tmp_path / "torn.gauss")
        rng = np.random.default_rng(17)
        build_saved(path, make_vectors(rng, 10, 2, "b"), 2)
        tree = GaussTree.open(path, writable=True)
        tree.insert(make_vectors(rng, 1, 2, "before")[0])
        wal = tree._writer.wal
        real_file = wal._file
        wal._file = FaultyFile(real_file, FaultInjector(20))
        with pytest.raises(InjectedCrash):
            tree.flush()
        wal._file = real_file
        tree.insert(make_vectors(rng, 1, 2, "after")[0])
        tree.close(checkpoint=False)
        recovered = GaussTree.open(path)
        try:
            assert len(recovered) == 12
            assert ("after", 0) in {v.key for v in recovered}
        finally:
            recovered.close()

    def test_close_after_failed_commit_keeps_file_openable(self, tmp_path):
        """Regression: a commit that dies mid-WAL-append leaves the
        mutation in the live tree but not in the store; a later
        close()/flush() must re-commit those pages before writing a
        header that describes the live tree — otherwise n_objects and
        the page images disagree and the file never opens again."""
        path = str(tmp_path / "failcommit.gauss")
        rng = np.random.default_rng(17)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        writer = tree._writer
        real_file = writer.wal._file

        class _Dies:
            def __init__(self) -> None:
                self.state = "tear"

            def write(self, data):
                if self.state == "tear":
                    self.state = "dead"
                    return real_file.write(data[: max(1, len(data) // 2)])
                if self.state == "dead":
                    raise OSError("no space")
                return real_file.write(data)

            def truncate(self, size=None):
                if self.state == "dead":
                    raise OSError("no space")
                return real_file.truncate(size)

            def __getattr__(self, name):
                return getattr(real_file, name)

        dies = _Dies()
        writer.wal._file = dies
        with pytest.raises(OSError):
            tree.insert(
                PFV(np.array([0.5, 0.5]), np.array([0.1, 0.1]), key="inmem")
            )
        assert len(tree) == 21  # the mutation survives in memory
        dies.state = "ok"  # space freed before the close
        tree.close()  # checkpoint: must publish the pending mutation
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 21
            assert "inmem" in {v.key for v in reopened}
            reopened.check_invariants()
        finally:
            reopened.close()

    def test_second_writable_open_is_refused(self, tmp_path, monkeypatch):
        import sys

        from repro.gausstree import persist

        if sys.platform == "win32":
            pytest.skip("advisory flock locking is POSIX-only")
        monkeypatch.setattr(persist, "_LOCK_RETRY_SECONDS", 0.05)
        path = str(tmp_path / "locked.gauss")
        rng = np.random.default_rng(18)
        build_saved(path, make_vectors(rng, 15, 2, "b"), 2)
        first = GaussTree.open(path, writable=True)
        try:
            with pytest.raises(RuntimeError, match="single-writer"):
                GaussTree.open(path, writable=True)
        finally:
            first.close()
        # Released on close: the index is writable again.
        again = GaussTree.open(path, writable=True)
        again.close()

    def test_reader_does_not_truncate_a_live_writers_wal(self, tmp_path):
        import sys

        if sys.platform == "win32":
            pytest.skip("advisory flock locking is POSIX-only")
        path = str(tmp_path / "live.gauss")
        rng = np.random.default_rng(19)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        writer_tree = GaussTree.open(path, writable=True)
        for v in make_vectors(rng, 5, 2, "x"):
            writer_tree.insert(v)
        wal_size = os.path.getsize(path + ".wal")
        assert wal_size > 8
        # A concurrent reader must *not* replay-and-truncate the live
        # writer's WAL; it serves the last-checkpoint state instead.
        reader = GaussTree.open(path)
        try:
            assert len(reader) == 20  # pre-insert checkpointed state
        finally:
            reader.close()
        assert os.path.getsize(path + ".wal") == wal_size
        # The writer's subsequent commits stay recoverable.
        for v in make_vectors(rng, 3, 2, "y"):
            writer_tree.insert(v)
        writer_tree.close(checkpoint=False)
        recovered = GaussTree.open(path)
        try:
            assert len(recovered) == 28
        finally:
            recovered.close()

    def test_reader_keeps_pre_checkpoint_snapshot_across_flush(
        self, tmp_path
    ):
        """Reader snapshot isolation (regression): a checkpoint racing an
        open read-only session must not swap pages under the reader. The
        checkpoint publishes a *new generation* by atomic rename, so the
        reader's open descriptor keeps the pre-checkpoint image and its
        answers stay frozen; only a fresh open sees the new state."""
        path = str(tmp_path / "snap.gauss")
        rng = np.random.default_rng(22)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        writer = GaussTree.open(path, writable=True)
        reader = GaussTree.open(path)
        try:
            extra = make_vectors(rng, 10, 2, "x")
            writer.insert_many(extra)
            writer.flush()  # checkpoint while the reader is open
            # The reader is sealed to its snapshot: same object set and
            # same answers as before the checkpoint, page for page.
            assert len(reader) == 20
            reader.check_invariants()
            pre = GaussTree(dims=2, degree=3)
            pre.extend(base)
            assert_same_answers(pre, reader, 2, seed=23)
            # Concurrently, the writer's view includes the new batch...
            assert len(writer) == 30
        finally:
            reader.close()
            writer.close()
        # ...and so does every session opened after the checkpoint.
        fresh = GaussTree.open(path)
        try:
            assert len(fresh) == 30
            post = GaussTree(dims=2, degree=3)
            post.extend(base + extra)
            assert_same_answers(post, fresh, 2, seed=24)
        finally:
            fresh.close()

    def test_read_only_open_rereads_a_header_a_checkpoint_superseded(
        self, tmp_path, monkeypatch
    ):
        """Regression: a read-only open takes no lock, so a live writer
        may checkpoint between the reader's header read and its page
        store open. The reader must not pair one generation's header
        with the next generation's file; it re-reads the header."""
        from repro.gausstree import persist

        path = str(tmp_path / "gen.gauss")
        rng = np.random.default_rng(25)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        writer = GaussTree.open(path, writable=True)
        extra = make_vectors(rng, 10, 2, "x")
        headers = []
        real_read_header = persist.read_header

        def read_header_then_checkpoint(p):
            meta = real_read_header(p)
            if not headers:  # the writer publishes a new generation now
                writer.insert_many(extra)
                writer.flush()
            headers.append(meta)
            return meta

        monkeypatch.setattr(persist, "read_header", read_header_then_checkpoint)
        try:
            reader = GaussTree.open(path)
            try:
                assert [h["n_objects"] for h in headers] == [20, 30]
                assert len(reader) == 30
                reader.check_invariants()
                post = GaussTree(dims=2, degree=3)
                post.extend(base + extra)
                assert_same_answers(post, reader, 2, seed=26)
            finally:
                reader.close()
        finally:
            writer.close()

    def test_read_only_open_writes_no_sidecar_files(self, tmp_path):
        """Regression: opening a clean index read-only must not create
        lock (or any other) files — PR-1 read-only opens worked from
        read-only media and must keep doing so."""
        path = str(tmp_path / "pristine.gauss")
        rng = np.random.default_rng(20)
        build_saved(path, make_vectors(rng, 15, 2, "b"), 2)
        before = sorted(os.listdir(tmp_path))
        tree = GaussTree.open(path)
        tree.close()
        assert sorted(os.listdir(tmp_path)) == before

    def test_save_over_a_live_foreign_writer_is_refused(self, tmp_path):
        import sys

        if sys.platform == "win32":
            pytest.skip("advisory flock locking is POSIX-only")
        path = str(tmp_path / "held.gauss")
        rng = np.random.default_rng(21)
        base = make_vectors(rng, 15, 2, "b")
        build_saved(path, base, 2)
        holder = GaussTree.open(path, writable=True)
        try:
            other = GaussTree(dims=2, degree=3)
            other.extend(make_vectors(rng, 10, 2, "x"))
            # A raw save_tree (what `repro build` does) over the held
            # index would truncate the holder's WAL: refuse loudly.
            with pytest.raises(RuntimeError, match="open writable"):
                save_tree(other, path)
            # The holder's own in-place save stays legal.
            holder.insert(make_vectors(rng, 1, 2, "y")[0])
            holder.save(path)
        finally:
            holder.close()
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 16
        finally:
            reopened.close()

    def test_save_to_other_path_keeps_source_writable(self, tmp_path):
        src = str(tmp_path / "src.gauss")
        dst = str(tmp_path / "dst.gauss")
        rng = np.random.default_rng(12)
        base = make_vectors(rng, 30, 2, "b")
        build_saved(src, base, 2)
        tree = GaussTree.open(src, writable=True)
        extra = make_vectors(rng, 10, 2, "x")
        for v in extra:
            tree.insert(v)
        tree.save(dst)
        # The copy is a clean, complete snapshot...
        snapshot = GaussTree.open(dst)
        try:
            assert len(snapshot) == 40
            snapshot.check_invariants()
        finally:
            snapshot.close()
        # ...and the source keeps accepting (durable) writes.
        tree.insert(make_vectors(rng, 1, 2, "y")[0])
        tree.close()
        reopened = GaussTree.open(src)
        try:
            assert len(reopened) == 41
        finally:
            reopened.close()


class TestWalHousekeeping:
    def test_checkpoint_empties_wal_and_main_file_serves_alone(self, tmp_path):
        path = str(tmp_path / "hk.gauss")
        rng = np.random.default_rng(13)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        tree = GaussTree.open(path, writable=True)
        for v in make_vectors(rng, 10, 2, "x"):
            tree.insert(v)
        wal_file = path + ".wal"
        assert WriteAheadLog.scan(wal_file)
        tree.flush()
        assert WriteAheadLog.scan(wal_file) == []
        assert os.path.getsize(wal_file) == 8  # just the magic
        tree.close()
        # Recovery has nothing to do; the main file alone is current.
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 30
        finally:
            reopened.close()

    def test_close_without_checkpoint_defers_to_recovery(self, tmp_path):
        path = str(tmp_path / "defer.gauss")
        rng = np.random.default_rng(14)
        base = make_vectors(rng, 20, 2, "b")
        build_saved(path, base, 2)
        stale_main = open(path, "rb").read()
        tree = GaussTree.open(path, writable=True)
        for v in make_vectors(rng, 10, 2, "x"):
            tree.insert(v)
        tree.close(checkpoint=False)
        # Main file untouched, WAL carries the state...
        assert open(path, "rb").read() == stale_main
        # ...until any open (read-only included) replays it.
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 30
            reopened.check_invariants()
        finally:
            reopened.close()
        assert open(path, "rb").read() != stale_main
        assert WriteAheadLog.scan(path + ".wal") == []


class TestAutoCheckpoint:
    """WAL-size-triggered checkpoints: ``auto_checkpoint_bytes``."""

    def test_wal_stays_bounded_and_state_reaches_main_file(self, tmp_path):
        path = str(tmp_path / "auto.gauss")
        rng = np.random.default_rng(21)
        base = make_vectors(rng, 15, 2, "b")
        build_saved(path, base, 2)
        limit = 64 * 1024
        tree = GaussTree.open(path, writable=True, auto_checkpoint_bytes=limit)
        try:
            wal_path = path + ".wal"
            high_water = 0
            for v in make_vectors(rng, 60, 2, "x"):
                tree.insert(v)
                high_water = max(high_water, os.path.getsize(wal_path))
            # The workload writes far more than `limit` bytes of log in
            # total (~30 KB of page images per insert), so the bound can
            # only hold because checkpoints fired along the way; between
            # operations the WAL never exceeds limit + one transaction.
            assert high_water <= limit + 256 * 1024
            assert high_water > len(WriteAheadLog(wal_path).path)  # sanity
        finally:
            tree.close(checkpoint=False)
        # State landed in the main file via auto-checkpoints (plus a WAL
        # tail for the ops after the last trigger), so a plain reopen
        # serves everything.
        reopened = GaussTree.open(path)
        try:
            assert len(reopened) == 75
            reopened.check_invariants()
        finally:
            reopened.close()

    def test_rejects_non_positive_limit(self, tmp_path):
        path = str(tmp_path / "bad.gauss")
        rng = np.random.default_rng(3)
        build_saved(path, make_vectors(rng, 5, 2, "b"), 2)
        with pytest.raises(ValueError):
            GaussTree.open(path, writable=True, auto_checkpoint_bytes=0)

    @given(
        seed=st.integers(0, 10_000),
        n_extra=st.integers(1, 20),
        budget=st.integers(1, 400_000),
        limit=st.sampled_from([1, 4_096, 32_768, 131_072]),
    )
    @settings(deadline=None)  # example budget comes from the active profile
    def test_crash_with_auto_checkpoint_recovers_durable_prefix(
        self, tmp_path_factory, seed, n_extra, budget, limit
    ):
        """The crash-harness case for auto-checkpoint: with the trigger
        armed (down to 'after every op'), a crash at any byte — commits
        and the *triggered* checkpoints included — still recovers the
        exact completed-operation prefix."""
        d = 2
        path = str(tmp_path_factory.mktemp("autockpt") / "t.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, 10, d, "base")
        extra = make_vectors(rng, n_extra, d, "extra")
        build_saved(path, base, d)

        injector = FaultInjector(budget)
        completed = 0
        writable = None
        try:
            writable = GaussTree.open(
                path,
                writable=True,
                auto_checkpoint_bytes=limit,
                file_factory=injector.open,
            )
            for v in extra:
                writable.insert(v)
                completed += 1
        except InjectedCrash:
            pass
        finally:
            if writable is not None:
                try:
                    writable.close(checkpoint=False)
                except InjectedCrash:
                    pass

        recovered = GaussTree.open(path)
        try:
            # Every insert that returned is durable. One more may be:
            # when the crash lands in the WAL-triggered checkpoint *after*
            # that insert's commit fsynced, the operation is durable even
            # though insert() raised — same contract as an explicit
            # flush() crashing after a successful commit.
            n = len(recovered)
            assert n in (10 + completed, 10 + completed + 1)
            recovered.check_invariants()
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in base + extra[: n - 10]
            )
        finally:
            recovered.close()


class TestGroupCommitMechanics:
    """Deterministic shape checks on the batched WAL transaction."""

    def test_insert_many_is_one_txn_with_deduped_pages(self, tmp_path):
        from repro.storage.wal import REC_PAGE
        import struct

        path = str(tmp_path / "t.gauss")
        rng = np.random.default_rng(0)
        base = make_vectors(rng, 12, 2, "base")
        build_saved(path, base, 2)
        writable = GaussTree.open(path, writable=True)
        writable.insert_many(make_vectors(rng, 16, 2, "grp"))
        txns = WriteAheadLog.scan(path + ".wal")
        writable.close(checkpoint=False)
        # One COMMIT seals the whole 16-insert batch...
        assert len(txns) == 1
        # ...and within it every dirtied page is logged exactly once.
        page_ids = [
            struct.unpack_from("<I", payload, 0)[0]
            for rtype, payload in txns[0]
            if rtype == REC_PAGE
        ]
        assert len(page_ids) == len(set(page_ids))

    def test_insert_many_logs_far_fewer_bytes_than_per_op(self, tmp_path):
        rng = np.random.default_rng(1)
        base = make_vectors(rng, 20, 2, "base")
        extra = make_vectors(rng, 32, 2, "x")
        sizes = {}
        for mode in ("per_op", "grouped"):
            path = str(tmp_path / f"{mode}.gauss")
            build_saved(path, base, 2)
            writable = GaussTree.open(path, writable=True)
            if mode == "per_op":
                for v in extra:
                    writable.insert(v)
            else:
                writable.insert_many(extra)
            sizes[mode] = os.path.getsize(path + ".wal")
            writable.close(checkpoint=False)
            recovered = GaussTree.open(path)
            assert len(recovered) == len(base) + len(extra)
            recovered.close()
        # Page-image dedup: the grouped WAL must be several times
        # smaller (each touched page logged once, not once per insert).
        assert sizes["grouped"] * 3 < sizes["per_op"], sizes

    def test_insert_many_answers_like_per_op_inserts(self, tmp_path):
        rng = np.random.default_rng(2)
        base = make_vectors(rng, 15, 2, "base")
        extra = make_vectors(rng, 20, 2, "x")
        path = str(tmp_path / "g.gauss")
        build_saved(path, base, 2)
        writable = GaussTree.open(path, writable=True)
        writable.insert_many(extra)
        writable.check_invariants()
        reference = GaussTree(dims=2, degree=3)
        reference.extend(base + extra)
        assert_same_answers(reference, writable, 2, seed=9)
        writable.close()

    def test_insert_many_on_in_memory_tree_is_a_plain_loop(self):
        rng = np.random.default_rng(3)
        tree = GaussTree(dims=2, degree=3)
        n = tree.insert_many(make_vectors(rng, 10, 2, "m"))
        assert n == 10 and len(tree) == 10
        tree.check_invariants()

    def test_insert_many_validates_before_mutating(self, tmp_path):
        path = str(tmp_path / "v.gauss")
        rng = np.random.default_rng(4)
        build_saved(path, make_vectors(rng, 8, 2, "base"), 2)
        writable = GaussTree.open(path, writable=True)
        good = make_vectors(rng, 3, 2, "ok")
        with pytest.raises(ValueError, match="3-d"):
            writable.insert_many(good + make_vectors(rng, 1, 3, "bad"))
        with pytest.raises(TypeError, match="cannot persist key"):
            writable.insert_many(
                good + [PFV([0.1, 0.2], [0.1, 0.1], key=object())]
            )
        # Nothing of either failed batch landed.
        assert len(writable) == 8
        writable.insert_many(good)
        assert len(writable) == 11
        writable.close()


class TestColumnarFileWrites:
    """The writable paths of both leaf-page formats: mutations rebuild the
    touched leaves' columns in memory, the file format stays sticky (a v3
    file checkpoints v3 pages, a v2 file interleaved v2 pages), and the
    crash harness holds over columnar files exactly as over v2."""

    def _columnar_saved(self, path, base, d, version=3):
        from repro.gausstree.bulkload import bulk_load

        tree = bulk_load(base)
        tree.save(path, version=version)
        return tree

    def _writable_round_trip(self, tmp_path, version):
        path = str(tmp_path / f"v{version}.gauss")
        rng = np.random.default_rng(41)
        d = 3
        base = make_vectors(rng, 60, d, "base")
        self._columnar_saved(path, base, d, version=version)
        assert read_header(path)["version"] == version

        extra = make_vectors(rng, 15, d, "extra")
        writable = GaussTree.open(path, writable=True)
        try:
            writable.insert_many(extra)
            for v in base[:10]:
                assert writable.delete(v)
            writable.flush()
            survivors = base[10:] + extra
            replay = GaussTree(dims=d, degree=3)
            replay.extend(survivors)
            assert_same_answers(replay, writable, d, seed=42)
        finally:
            writable.close()
        # Sticky format: checkpointing writes the file's own format back.
        assert read_header(path)["version"] == version
        reopened = GaussTree.open(path)
        try:
            assert sorted(v.key for v in reopened) == sorted(
                v.key for v in survivors
            )
            replay = GaussTree(dims=d, degree=3)
            replay.extend(survivors)
            assert_same_answers(replay, reopened, d, seed=43)
        finally:
            reopened.close()

    def test_writable_v3_file_round_trips_and_stays_v3(self, tmp_path):
        self._writable_round_trip(tmp_path, version=3)

    def test_writable_v2_file_round_trips_and_stays_v2(self, tmp_path):
        self._writable_round_trip(tmp_path, version=2)

    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        n_base=st.integers(6, 40),
        n_extra=st.integers(1, 15),
        budget=st.integers(1, 250_000),
    )
    @settings(deadline=None)
    def test_crash_on_columnar_v3_file_recovers_durable_prefix(
        self, tmp_path_factory, d, seed, n_base, n_extra, budget
    ):
        path = str(tmp_path_factory.mktemp("crash-v3") / "col.gauss")
        rng = np.random.default_rng(seed)
        base = make_vectors(rng, n_base, d, "base")
        extra = make_vectors(rng, n_extra, d, "extra")
        self._columnar_saved(path, base, d)
        assert read_header(path)["version"] == 3

        injector = FaultInjector(budget)
        completed = 0
        writable = None
        try:
            writable = GaussTree.open(
                path, writable=True, file_factory=injector.open
            )
            for v in extra:
                writable.insert(v)
                completed += 1
            writable.flush()
        except InjectedCrash:
            pass
        finally:
            if writable is not None:
                writable.close(checkpoint=False)

        recovered = GaussTree.open(path)
        try:
            assert read_header(path)["version"] == 3
            assert len(recovered) == n_base + completed
            recovered.check_invariants()
            assert sorted(v.key for v in recovered) == sorted(
                v.key for v in base + extra[:completed]
            )
            replay = GaussTree(dims=d, degree=3)
            replay.extend(base + extra[:completed])
            assert_same_answers(replay, recovered, d, seed + 1)
        finally:
            recovered.close()


def write_fixed_workload(directory, version, buffer_pages):
    """One fixed save/insert/delete workload on a writable tree; returns
    the bytes it leaves behind: the WAL before the checkpoint, a replica
    resynced from that WAL, and the checkpointed main file. Runs in a
    child process for :class:`TestDeterministicBytes`."""
    from repro.storage.buffer import BufferManager
    from repro.storage.ship import create_replica, replica_path

    rng = np.random.default_rng(11)
    path = os.path.join(directory, "index.gauss")
    base = GaussTree(dims=3, degree=3)
    base.extend(make_vectors(rng, 120, 3, "base"))
    base.save(path, version=version)
    buffer = None if buffer_pages is None else BufferManager(buffer_pages)
    tree = GaussTree.open(path, buffer=buffer, writable=True)
    added = make_vectors(rng, 300, 3, "add")
    tree.insert_many(added[:200])
    for v in added[:120:3]:
        tree.delete(v)
    tree.insert_many(added[200:])
    tree.insert(make_vectors(rng, 1, 3, "one")[0])
    with open(path + ".wal", "rb") as f:
        wal = f.read()
    replica = create_replica(path, replica_path(path, 1))
    with open(replica, "rb") as f:
        replica_bytes = f.read()
    tree.close()
    with open(path, "rb") as f:
        checkpointed = f.read()
    return {"wal": wal, "replica": replica_bytes, "checkpointed": checkpointed}


class TestDeterministicBytes:
    @pytest.mark.parametrize("version, buffer_pages", [(2, None), (3, 2)])
    def test_same_workload_writes_the_same_bytes_in_two_processes(
        self, tmp_path, version, buffer_pages
    ):
        # Dirty nodes hash by identity, so an encoding order that follows
        # a set's iteration order depends on memory addresses, which
        # differ between processes.
        import json
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((os.path.join(root, "src"), root)),
        )
        digests = []
        for run in range(2):
            directory = tmp_path / f"run{run}"
            directory.mkdir()
            script = (
                "import hashlib, json; "
                "from tests.gausstree.test_persist_write import "
                "write_fixed_workload as w; "
                f"out = w({str(directory)!r}, {version}, {buffer_pages}); "
                "print(json.dumps({k: hashlib.sha256(v).hexdigest() "
                "for k, v in out.items()}))"
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            digests.append(json.loads(done.stdout.strip().splitlines()[-1]))
        assert digests[0] == digests[1]


class TestKeySlotReuse:
    """A writer's commit re-encodes its dirty leaf, and the key table
    answers the slots of keys it has stored before without encoding
    them again. The tagged JSON encoding still decides every slot."""

    @staticmethod
    def _open_single_leaf(path, keys):
        base = GaussTree(dims=3)
        base.extend(
            PFV([0.1 * (i % 9)] * 3, [0.2] * 3, key=k)
            for i, k in enumerate(keys)
        )
        base.save(path)
        tree = GaussTree.open(path, writable=True, fsync=False)
        assert tree.root.is_leaf  # every commit re-encodes the one leaf
        return tree

    @staticmethod
    def _count_encodings(monkeypatch):
        from repro.gausstree import persist

        encoded = []
        real = persist._encode_key

        def counting(key):
            encoded.append(key)
            return real(key)

        monkeypatch.setattr(persist, "_encode_key", counting)
        return encoded

    @staticmethod
    def _table(path):
        import json

        meta = read_header(path)
        with open(path, "rb") as f:
            f.seek(meta["key_table_offset"])
            return json.loads(f.read(meta["key_table_bytes"]))

    def test_commit_encodes_only_keys_new_to_the_table(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "reuse.gauss")
        tree = self._open_single_leaf(path, [f"row{i}" for i in range(100)])
        try:
            tree.insert(PFV([0.5] * 3, [0.2] * 3, key="warm"))
            encoded = self._count_encodings(monkeypatch)
            fresh = PFV([0.4] * 3, [0.2] * 3, key="fresh")
            tree.insert(fresh)
            assert tree.root.count == 102
            # Once, by insert_many's up-front check: the slot probe and
            # the commit's KEYS record reuse that encoding.
            assert encoded == ["fresh"]
            encoded.clear()
            assert tree.delete(PFV([0.1] * 3, [0.2] * 3, key="row1"))
            assert encoded == []
            # A deleted key object inserted again keeps its slot, and
            # the table remembers it: only insert_many's up-front key
            # check encodes it, the commit encodes nothing.
            assert tree.delete(fresh)
            encoded.clear()
            tree.insert(fresh)
            assert encoded == ["fresh"]
        finally:
            tree.close()
        table = self._table(path)
        assert table.count(["s", "fresh"]) == 1
        assert len(table) == 102  # the deleted row1 keeps its slot

    def test_equal_keys_of_different_types_keep_distinct_slots(self, tmp_path):
        from repro.gausstree.persist import _decode_key, _encode_key

        keys = [1, True, 1.0, (1,), (True,), (1.0,), -0.0, 0.0, "1"]
        path = str(tmp_path / "types.gauss")
        tree = self._open_single_leaf(path, keys)
        before = self._table(path)
        assert len(before) == len(keys)
        try:
            # Equal keys as objects the table has not seen: each must
            # land on the slot of the key with its own type.
            for k in [
                int("1"), bool(1), float("1.0"), tuple([int("1")]),
                tuple([bool(1)]), tuple([float("1.0")]), float("-0.0"),
                float("0.0"), "".join(["1"]),
            ]:
                tree.insert(PFV([0.7] * 3, [0.2] * 3, key=k))
        finally:
            tree.close()
        assert self._table(path) == before  # no new slot
        reopened = GaussTree.open(path)
        try:
            got = sorted(repr(_encode_key(v.key)) for v in reopened)
        finally:
            reopened.close()
        want = sorted(repr(_encode_key(_decode_key(e))) for e in before) * 2
        assert got == sorted(want)

    def test_a_key_reinserted_as_fresh_objects_keeps_one_memo_entry(
        self, tmp_path
    ):
        path = str(tmp_path / "bounded.gauss")
        tree = self._open_single_leaf(path, [("base", i) for i in range(20)])
        try:
            table = tree._writer.key_table
            slots = len(table.keys)
            previous = None
            for _ in range(1000):
                key = tuple(["again", int("7")])  # a new object each time
                assert key is not previous
                v = PFV([0.3] * 3, [0.2] * 3, key=key)
                tree.insert(v)
                assert tree.delete(v)
                previous = key
            assert len(table.keys) == slots + 1
            assert len(table._slot_of_id) == len(table.keys)
            assert table.keys[-1] is previous
        finally:
            tree.close()

    def test_slots_match_a_probe_only_table_for_mixed_fresh_objects(self):
        import json

        from repro.gausstree.persist import _KeyTable, _encode_key

        def fresh(i):  # equal values as new objects, types mixed
            kind = i % 8
            if kind == 0:
                return int(str(i % 7))
            if kind == 1:
                return float(str(i % 7))
            if kind == 2:
                return bool(i % 2)
            if kind == 3:
                return "".join(["k\u00e9", str(i % 5)])
            if kind == 4:
                return tuple([int(str(i % 3)), "".join(["t"])])
            if kind == 5:
                return float(["nan", "inf", "-inf"][i % 3])
            if kind == 6:
                return None
            return float("-0.0") if i % 4 else float("0.0")

        table = _KeyTable()
        probe_only: dict[str, int] = {}
        for i in range(600):
            key = fresh(i)
            want = probe_only.setdefault(
                json.dumps(_encode_key(key)), len(probe_only)
            )
            assert table.slot(key) == want
            assert table.slot(key) == want  # remembered object
        assert len(table._slot_of_id) == len(table.keys) == len(probe_only)
        assert table.dump() == json.dumps(
            [json.loads(p) for p in probe_only]
        ).encode("utf-8")
