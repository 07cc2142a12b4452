"""Write-ahead log and crash-injection double: record-level guarantees.

The WAL's contract is byte-level: commits are atomic under torn writes
(a transaction missing any byte of its COMMIT record does not exist),
corruption is detected by checksums and discards the suspect suffix, and
a reset leaves a scannable empty log. The :class:`FaultyFile` double is
itself tested here — the durability property tests stand on it.
"""

import os

import pytest
from hypothesis import given, strategies as st

from repro.storage.fault import FaultInjector, FaultyFile, InjectedCrash
from repro.storage.wal import (
    REC_KEYS,
    REC_META,
    REC_PAGE,
    WAL_MAGIC,
    WALGroup,
    WriteAheadLog,
)


def wal_at(tmp_path, name="log.wal", **kwargs):
    return WriteAheadLog(str(tmp_path / name), **kwargs)


class TestRoundTrip:
    def test_committed_transactions_scan_back(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append_page(3, b"abc")
        wal.append(REC_KEYS, b'[["i", 7]]')
        wal.commit()
        wal.append(REC_META, b"meta-bytes")
        wal.commit()
        wal.close()
        txns = WriteAheadLog.scan(wal.path)
        assert len(txns) == 2
        assert txns[0] == [
            (REC_PAGE, b"\x03\x00\x00\x00abc"),
            (REC_KEYS, b'[["i", 7]]'),
        ]
        assert txns[1] == [(REC_META, b"meta-bytes")]

    def test_records_without_commit_are_invisible(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append_page(1, b"x" * 64)
        wal.sync()
        wal.close()
        assert WriteAheadLog.scan(wal.path) == []

    def test_missing_file_scans_empty(self, tmp_path):
        assert WriteAheadLog.scan(str(tmp_path / "absent.wal")) == []

    def test_mangled_magic_scans_empty(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 100)
        assert WriteAheadLog.scan(str(path)) == []

    def test_reset_empties_the_log(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append_page(1, b"payload")
        wal.commit()
        assert not wal.is_empty
        wal.reset()
        assert wal.is_empty
        assert WriteAheadLog.scan(wal.path) == []
        # The log is append-ready again after a reset.
        wal.append_page(2, b"later")
        wal.commit()
        wal.close()
        assert WriteAheadLog.scan(wal.path) == [(
            [(REC_PAGE, b"\x02\x00\x00\x00later")]
        )]

    def test_reopen_appends_after_existing_records(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append_page(1, b"first")
        wal.commit()
        wal.close()
        wal = wal_at(tmp_path)
        wal.append_page(2, b"second")
        wal.commit()
        wal.close()
        assert len(WriteAheadLog.scan(wal.path)) == 2

    def test_truncate_to_rolls_back_unsealed_records(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append_page(1, b"kept")
        wal.commit()
        start = wal.tell()
        wal.append_page(2, b"rolled-back")
        wal.truncate_to(start)
        wal.append_page(3, b"next")
        wal.commit()
        wal.close()
        txns = WriteAheadLog.scan(wal.path)
        assert [t[0][1][4:] for t in txns] == [b"kept", b"next"]


class TestCorruption:
    @given(cut=st.integers(0, 400))
    def test_any_truncation_yields_a_committed_prefix(self, tmp_path_factory, cut):
        """A torn tail at *any* byte must never fabricate a transaction."""
        path = str(tmp_path_factory.mktemp("wal") / "torn.wal")
        wal = WriteAheadLog(path, fsync=False)
        payloads = [b"a" * 20, b"b" * 33, b"c" * 47]
        for p in payloads:
            wal.append_page(1, p)
            wal.commit()
        wal.close()
        blob = open(path, "rb").read()
        cut = min(cut, len(blob))
        with open(path, "wb") as f:
            f.write(blob[:cut])
        txns = WriteAheadLog.scan(path)
        assert len(txns) <= len(payloads)
        # Whatever survives is a prefix with intact payloads.
        for txn, expected in zip(txns, payloads):
            assert txn == [(REC_PAGE, b"\x01\x00\x00\x00" + expected)]

    @given(flip=st.integers(8, 120), bit=st.integers(0, 7))
    def test_bit_flips_discard_the_suffix(self, tmp_path_factory, flip, bit):
        path = str(tmp_path_factory.mktemp("wal") / "flip.wal")
        wal = WriteAheadLog(path, fsync=False)
        for p in (b"x" * 30, b"y" * 30, b"z" * 30):
            wal.append_page(2, p)
            wal.commit()
        wal.close()
        blob = bytearray(open(path, "rb").read())
        flip = min(flip, len(blob) - 1)
        blob[flip] ^= 1 << bit
        with open(path, "wb") as f:
            f.write(bytes(blob))
        txns = WriteAheadLog.scan(path)
        # Never more than the three real transactions, and any that do
        # scan back must carry an uncorrupted payload (the flipped byte's
        # transaction fails its checksum and takes the suffix with it).
        assert len(txns) <= 3
        for txn in txns:
            assert txn[0][1][4:] in (b"x" * 30, b"y" * 30, b"z" * 30)

    def test_garbage_length_field_reads_as_torn(self, tmp_path):
        path = tmp_path / "len.wal"
        path.write_bytes(WAL_MAGIC + b"\xff\xff\xff\xff" + b"\x01" + b"junk")
        assert WriteAheadLog.scan(str(path)) == []

    def test_probe_survives_a_checkpoint_truncating_the_log(
        self, tmp_path, monkeypatch
    ):
        """Regression: read-only opens probe the WAL without the index
        lock, so a live writer may reset it after the probe sized the
        file. The shrunken log means nothing to replay, not a crash."""
        import repro.storage.wal as wal_module

        wal = wal_at(tmp_path)
        wal.append_page(1, b"x" * 64)
        wal.commit()

        class ResetAfterSizing:
            """The log file as the probe sees it: the writer's
            checkpoint lands right after the probe reads its size."""

            def __init__(self, f):
                self._f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def tell(self):
                size = self._f.tell()
                wal.reset()
                return size

            def __getattr__(self, name):
                return getattr(self._f, name)

        monkeypatch.setattr(
            wal_module,
            "open",
            lambda path, mode="r": ResetAfterSizing(open(path, mode)),
            raising=False,
        )
        assert WriteAheadLog.has_committed(wal.path) is False
        wal.close()

    def test_committed_length_survives_a_checkpoint_truncating_the_log(
        self, tmp_path, monkeypatch
    ):
        """WAL shipping sizes the log without the index lock as well: a
        log reset after the walk sized it reads as nothing committed
        (the short header read once raised ``struct.error``)."""
        import repro.storage.wal as wal_module

        wal = wal_at(tmp_path)
        wal.append_page(1, b"x" * 64)
        wal.commit()

        class ResetAfterSizing:
            def __init__(self, f):
                self._f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def tell(self):
                size = self._f.tell()
                wal.reset()
                return size

            def __getattr__(self, name):
                return getattr(self._f, name)

        monkeypatch.setattr(
            wal_module,
            "open",
            lambda path, mode="r": ResetAfterSizing(open(path, mode)),
            raising=False,
        )
        assert WriteAheadLog.committed_length(wal.path) == len(WAL_MAGIC)
        wal.close()


class TestFaultyFile:
    def test_budget_tears_a_write_and_sticks(self, tmp_path):
        path = str(tmp_path / "f.bin")
        inj = FaultInjector(10)
        f = inj.open(path, "w+b")
        f.write(b"12345")  # 5 of 10
        with pytest.raises(InjectedCrash):
            f.write(b"abcdefgh")  # 8 > 5 remaining: tears after 5
        assert inj.crashed
        with pytest.raises(InjectedCrash):
            f.write(b"x")  # dead stays dead
        f.close()
        assert open(path, "rb").read() == b"12345abcde"

    def test_exact_budget_write_lands_then_next_dies(self, tmp_path):
        path = str(tmp_path / "g.bin")
        inj = FaultInjector(4)
        f = inj.open(path, "w+b")
        f.write(b"wxyz")
        with pytest.raises(InjectedCrash):
            f.write(b"!")
        f.close()
        assert open(path, "rb").read() == b"wxyz"

    def test_budget_is_shared_across_files(self, tmp_path):
        inj = FaultInjector(6)
        a = inj.open(str(tmp_path / "a.bin"), "w+b")
        b = inj.open(str(tmp_path / "b.bin"), "w+b")
        a.write(b"1234")
        with pytest.raises(InjectedCrash):
            b.write(b"5678")  # only 2 left in the shared budget
        a.close()
        b.close()
        assert open(str(tmp_path / "b.bin"), "rb").read() == b"56"

    def test_reads_and_seeks_are_free(self, tmp_path):
        path = str(tmp_path / "r.bin")
        with open(path, "wb") as f:
            f.write(b"hello world")
        inj = FaultInjector(0)
        f = inj.open(path, "rb")
        f.seek(6)
        assert f.read() == b"world"
        f.close()

    def test_wrapper_is_file_like_enough_for_the_wal(self, tmp_path):
        # fileno/flush passthrough: os.fsync on a FaultyFile must work,
        # because the WAL commits through it under injection.
        path = str(tmp_path / "w.wal")
        inj = FaultInjector(10_000)
        wal = WriteAheadLog(path, file_factory=inj.open)
        wal.append_page(1, b"payload")
        wal.commit()
        wal.close()
        assert len(WriteAheadLog.scan(path)) == 1

    def test_wal_commit_torn_by_injection_is_invisible(self, tmp_path):
        path = str(tmp_path / "t.wal")
        # Enough budget for the magic and the page record, not the COMMIT.
        wal_full = WriteAheadLog(str(tmp_path / "ref.wal"))
        wal_full.append_page(1, b"p" * 100)
        record_bytes = wal_full.tell() - len(WAL_MAGIC)
        wal_full.close()
        inj = FaultInjector(len(WAL_MAGIC) + record_bytes + 3)
        wal = WriteAheadLog(path, file_factory=inj.open)
        wal.append_page(1, b"p" * 100)
        with pytest.raises(InjectedCrash):
            wal.commit()
        assert WriteAheadLog.scan(path) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(-1)

    def test_plain_faultyfile_wraps_real_handles(self, tmp_path):
        path = str(tmp_path / "p.bin")
        inj = FaultInjector(3)
        f = FaultyFile(open(path, "w+b"), inj)
        with pytest.raises(InjectedCrash):
            f.write(b"toolong")
        f.close()
        assert open(path, "rb").read() == b"too"


class TestWALGroup:
    def test_batch_is_one_transaction_with_deduped_pages(self, tmp_path):
        wal = wal_at(tmp_path)
        group = WALGroup()
        group.add_page(3, b"v1")
        group.add_page(5, b"other")
        group.add_page(3, b"v2")  # re-dirtied: latest image wins
        group.add_keys([["i", 1]])
        group.add_keys([["i", 2]])
        group.set_meta(b"header")
        assert group.n_pages == 2
        group.commit_to(wal)
        wal.close()
        txns = WriteAheadLog.scan(wal.path)
        assert len(txns) == 1  # one COMMIT seals the whole batch
        records = txns[0]
        pages = {r[1][:4]: r[1][4:] for r in records if r[0] == REC_PAGE}
        assert pages == {
            b"\x03\x00\x00\x00": b"v2",
            b"\x05\x00\x00\x00": b"other",
        }
        keys = [r for r in records if r[0] == REC_KEYS]
        assert keys == [(REC_KEYS, b'[["i", 1], ["i", 2]]')]
        assert records[-1] == (REC_META, b"header")

    def test_commit_requires_meta(self, tmp_path):
        wal = wal_at(tmp_path)
        group = WALGroup()
        group.add_page(1, b"x")
        with pytest.raises(ValueError, match="META"):
            group.commit_to(wal)
        wal.close()
        # Nothing reached the log, not even unsealed records.
        assert os.path.getsize(wal.path) == len(WAL_MAGIC)

    def test_emptiness_and_counters(self, tmp_path):
        group = WALGroup()
        assert group.is_empty
        group.add_page(1, b"x")
        assert not group.is_empty and group.n_pages == 1

    def test_torn_group_commit_is_invisible_whole(self, tmp_path):
        """A crash anywhere inside the batched append discards the
        *entire* batch — recovery never sees a partial group."""
        # Measure the full group's byte footprint first.
        ref = wal_at(tmp_path, "ref.wal")
        group = WALGroup()
        for pid in range(4):
            group.add_page(pid, bytes([pid]) * 50)
        group.set_meta(b"m" * 30)
        group.commit_to(ref)
        footprint = ref.tell() - len(WAL_MAGIC)
        ref.close()
        # Now crash at every prefix of that footprint (minus the very
        # end): scan must come back empty every time.
        for budget in range(0, footprint, 7):
            path = str(tmp_path / f"torn-{budget}.wal")
            inj = FaultInjector(len(WAL_MAGIC) + budget)
            wal = WriteAheadLog(path, file_factory=inj.open)
            regroup = WALGroup()
            for pid in range(4):
                regroup.add_page(pid, bytes([pid]) * 50)
            regroup.set_meta(b"m" * 30)
            with pytest.raises(InjectedCrash):
                regroup.commit_to(wal)
            assert WriteAheadLog.scan(path) == []
