"""Tests of the paged sequential-scan competitor."""

import pytest

from repro import MLIQ, connect
from repro.baselines.seqscan import SequentialScanIndex
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import MLIQuery, ThresholdQuery
from repro.core.scan import scan_mliq, scan_tiq
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import PAPER_TESTBED
from repro.storage.pagestore import PageStore

from tests.conftest import make_random_db, make_random_query


@pytest.fixture
def scan_index():
    db = make_random_db(n=200, d=3, seed=1)
    return db, SequentialScanIndex(db)


class TestCorrectness:
    def test_mliq_equals_in_memory_scan(self, scan_index):
        db, idx = scan_index
        q = make_random_query(d=3, seed=2)
        (got,), _ = idx._mliq_many_impl([MLIQuery(q, 7)])
        want = scan_mliq(db, MLIQuery(q, 7))
        assert [m.key for m in got] == [m.key for m in want]
        for a, b in zip(got, want):
            assert a.probability == pytest.approx(b.probability)

    def test_tiq_equals_in_memory_scan(self, scan_index):
        db, idx = scan_index
        q = make_random_query(d=3, seed=3)
        (got,), _ = idx._tiq_many_impl([ThresholdQuery(q, 0.05)])
        want = scan_tiq(db, ThresholdQuery(q, 0.05))
        assert [m.key for m in got] == [m.key for m in want]

    def test_empty_database_answers_empty(self):
        # Normalised edge-case semantics (repro.engine.spec): an empty
        # database is a valid zero-page source, not an error.
        idx = SequentialScanIndex(PFVDatabase())
        assert idx.file_pages == 0
        q = make_random_query(d=3, seed=9)
        (matches,), stats = idx._mliq_many_impl([MLIQuery(q, 3)])
        assert matches == [] and stats.pages_accessed == 0
        (matches,), _ = idx._tiq_many_impl([ThresholdQuery(q, 0.1)])
        assert matches == []
        batches, _ = idx._mliq_many_impl([MLIQuery(q, 2)] * 3)
        assert batches == [[], [], []]

    def test_rows_added_to_the_database_are_scanned(self, scan_index):
        # The scan keeps its rows in the kernel's layout, prepared once;
        # PFVDatabase.add drops the matrices they came from, and the
        # next scan prepares them again.
        db, idx = scan_index
        q = make_random_query(d=3, seed=4)
        (before,), _ = idx._mliq_many_impl([MLIQuery(q, 3)])
        prepared = idx._columns()
        assert idx._columns() is prepared
        db.add(PFV(q.mu, q.sigma, key="twin"))
        (after,), _ = idx._mliq_many_impl([MLIQuery(q, 3)])
        assert idx._columns() is not prepared
        assert idx._columns().rows == len(db)
        assert after[0].key == "twin"
        assert [m.key for m in after] == [
            m.key for m in scan_mliq(db, MLIQuery(q, 3))
        ]
        assert [m.key for m in after[1:]] == [m.key for m in before[:2]]

    def test_rows_added_to_an_empty_database_are_answered(self):
        # An index built over an empty database has no layout and no
        # pages; its first pass over added rows grows the file.
        db = PFVDatabase()
        q = make_random_query(d=3, seed=10)
        with connect(db, backend="seqscan") as session:
            db.add(PFV(q.mu, q.sigma, key="first"))
            assert len(session) == 1
            result = session.execute(MLIQ(q, 1))
            (match,) = result.matches
            assert match.key == "first" and match.probability == 1.0
            assert result.stats.pages_accessed == 1

    def test_the_file_grows_a_page_when_rows_spill_over(self):
        # 292 rows of 3-d pfv fill two pages of 146; the 293rd needs a
        # third, which the next pass reads and counts.
        db = make_random_db(n=292, d=3, seed=11)
        idx = SequentialScanIndex(db)
        assert idx.layout.leaf_capacity == 146 and idx.file_pages == 2
        q = make_random_query(d=3, seed=12)
        db.add(PFV(q.mu, q.sigma, key="spill"))
        (matches,), stats = idx._mliq_many_impl([MLIQuery(q, 1)])
        assert matches[0].key == "spill"
        assert (stats.objects_refined, stats.pages_accessed) == (293, 3)
        assert idx.file_pages == 3
        _, stats = idx._tiq_many_impl([ThresholdQuery(q, 0.5)])
        assert stats.pages_accessed == 6

    def test_mliq_many_matches_singles(self, scan_index):
        db, idx = scan_index
        mliqs = [MLIQuery(make_random_query(d=3, seed=50 + i), 5) for i in range(12)]
        batch, stats = idx._mliq_many_impl(mliqs)
        for query, matches in zip(mliqs, batch):
            single = scan_mliq(db, query)
            assert [m.key for m in single] == [m.key for m in matches]
            for a, b in zip(single, matches):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
        # The whole batch shares ONE sequential pass.
        assert stats.pages_accessed == idx.file_pages
        assert stats.objects_refined == len(db) * len(mliqs)

    def test_empty_batches(self, scan_index):
        _, idx = scan_index
        results, stats = idx._mliq_many_impl([])
        assert results == [] and stats.pages_accessed == 0
        results, stats = idx._tiq_many_impl([])
        assert results == [] and stats.pages_accessed == 0

    def test_tiq_many_matches_singles(self, scan_index):
        db, idx = scan_index
        tiqs = [
            ThresholdQuery(make_random_query(d=3, seed=80 + i), 0.1)
            for i in range(8)
        ]
        batch, stats = idx._tiq_many_impl(tiqs)
        for query, matches in zip(tiqs, batch):
            single = scan_tiq(db, query)
            assert [m.key for m in single] == [m.key for m in matches]
        # One density pass plus one report pass for the whole batch.
        assert stats.pages_accessed == 2 * idx.file_pages


class TestAccounting:
    def test_mliq_reads_file_once(self, scan_index):
        db, idx = scan_index
        q = make_random_query(d=3, seed=4)
        _, stats = idx._mliq_many_impl([MLIQuery(q, 1)])
        assert stats.pages_accessed == idx.file_pages
        assert stats.objects_refined == len(db)

    def test_tiq_reads_file_twice(self, scan_index):
        db, idx = scan_index
        q = make_random_query(d=3, seed=5)
        _, stats = idx._tiq_many_impl([ThresholdQuery(q, 0.5)])
        assert stats.pages_accessed == 2 * idx.file_pages
        # Densities are computed once; the second pass only re-reads.
        assert stats.objects_refined == len(db)

    def test_sequential_io_cheaper_than_random(self, scan_index):
        _, idx = scan_index
        q = make_random_query(d=3, seed=6)
        idx.store.cold_start()
        idx.store.buffer.reset_stats()
        _, stats = idx._mliq_many_impl([MLIQuery(q, 1)])
        assert (stats.faulted_runs, stats.faulted_run_pages) == (
            1,
            stats.page_faults,
        )
        io, _ = PAPER_TESTBED.price(stats, vectorized=False)
        assert io < PAPER_TESTBED.random_read_seconds(stats.page_faults)

    def test_warm_cache_second_query_free_io(self):
        db = make_random_db(n=100, d=2, seed=7)
        store = PageStore(buffer=BufferManager(10_000))
        idx = SequentialScanIndex(db, page_store=store)
        q = make_random_query(d=2, seed=8)
        _, first = idx._mliq_many_impl([MLIQuery(q, 1)])
        _, second = idx._mliq_many_impl([MLIQuery(q, 1)])
        assert PAPER_TESTBED.price(first, vectorized=False)[0] > 0.0
        assert PAPER_TESTBED.price(second, vectorized=False)[0] == 0.0
        assert second.pages_accessed == first.pages_accessed

    def test_modeled_cpu_populated(self, scan_index):
        db, idx = scan_index
        q = make_random_query(d=3, seed=9)
        _, stats = idx._mliq_many_impl([MLIQuery(q, 1)])
        expected = PAPER_TESTBED.modeled_cpu_seconds(len(db), idx.file_pages)
        _, cpu = PAPER_TESTBED.price(stats, vectorized=False)
        assert cpu == pytest.approx(expected)
