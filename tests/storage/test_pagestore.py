"""Unit tests for the page store and its access accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer import BufferManager
from repro.storage.costmodel import DiskCostModel
from repro.storage.filestore import FilePageStore
from repro.storage.pagestore import AccessLog, PageStore

from tests.conftest import lru_reference


class TestAllocation:
    def test_allocate_unique_ids(self):
        store = PageStore()
        ids = {store.allocate() for _ in range(100)}
        assert len(ids) == 100
        assert store.allocated_pages == 100

    def test_free(self):
        store = PageStore()
        pid = store.allocate()
        store.free(pid)
        assert store.allocated_pages == 0
        with pytest.raises(KeyError):
            store.read(pid)

    def test_read_unallocated(self):
        with pytest.raises(KeyError):
            PageStore().read(42)


class TestAccounting:
    def make_store(self, capacity=4):
        return PageStore(
            buffer=BufferManager(capacity), cost_model=DiskCostModel()
        )

    def test_read_counts_access_and_fault(self):
        store = self.make_store()
        pid = store.allocate()
        store.read(pid)
        assert store.log.pages_accessed == 1
        assert store.log.page_faults == 1
        store.read(pid)  # buffered now
        assert store.log.pages_accessed == 2
        assert store.log.page_faults == 1

    def test_fault_costs_random_io(self):
        store = self.make_store()
        pid = store.allocate()
        store.read(pid)
        assert store.log.io_seconds == pytest.approx(
            store.cost_model.random_read_seconds(1)
        )
        store.read(pid)
        assert store.log.io_seconds == pytest.approx(
            store.cost_model.random_read_seconds(1)
        )  # hits are free

    def test_sequential_run_accounting(self):
        store = self.make_store(capacity=100)
        pages = [store.allocate() for _ in range(10)]
        store.read_sequential_run(pages)
        assert store.log.pages_accessed == 10
        assert store.log.page_faults == 10
        assert store.log.io_seconds == pytest.approx(
            store.cost_model.sequential_read_seconds(10)
        )
        # Second run is fully buffered: accesses count, no new IO.
        store.read_sequential_run(pages)
        assert store.log.pages_accessed == 20
        assert store.log.page_faults == 10

    def test_sequential_run_partial_residency(self):
        store = self.make_store(capacity=100)
        pages = [store.allocate() for _ in range(6)]
        store.read(pages[0])
        before = store.log.io_seconds
        store.read_sequential_run(pages)
        # Only the five non-resident pages transfer.
        assert store.log.io_seconds - before == pytest.approx(
            store.cost_model.sequential_read_seconds(5)
        )

    def test_begin_query_resets_log(self):
        store = self.make_store()
        pid = store.allocate()
        store.read(pid)
        store.begin_query()
        assert store.log.pages_accessed == 0
        assert store.log.io_seconds == 0.0

    def test_cold_start_forces_faults_again(self):
        store = self.make_store()
        pid = store.allocate()
        store.read(pid)
        store.cold_start()
        store.begin_query()
        store.read(pid)
        assert store.log.page_faults == 1

    def test_repr(self):
        assert "PageStore" in repr(self.make_store())


class TestReadMany:
    """``read_many`` is one ``read`` per page, paid in one call."""

    # Duplicates, a run longer than the 4-page buffer (evictions) and a
    # revisit of evicted pages.
    SEQUENCE = [0, 1, 2, 0, 3, 4, 5, 1, 6, 2, 2, 7, 0]

    @pytest.mark.parametrize("capacity", [0, 4, 64])
    def test_counters_and_lru_order_are_those_of_an_lru_cache(
        self, capacity
    ):
        cost = DiskCostModel()
        store = PageStore(buffer=BufferManager(capacity), cost_model=cost)
        for _ in range(8):
            store.allocate()
        for _ in range(2):  # cold, then warm
            store.begin_query()
            before = list(store.buffer._resident)
            store.read_many(self.SEQUENCE[:5])
            store.read_many(self.SEQUENCE[5:])
            order, faults, evictions = lru_reference(
                self.SEQUENCE, capacity, before
            )
            io_seconds = 0.0
            for _ in range(faults):
                io_seconds += cost.random_read_seconds(1)
            assert list(store.buffer._resident) == order
            assert store.log.pages_accessed == len(self.SEQUENCE)
            assert store.log.page_faults == faults
            assert store.log.evictions == evictions
            assert store.log.io_seconds == io_seconds

    def test_unallocated_page_raises_after_counting_the_ones_before(self):
        store = PageStore(buffer=BufferManager(4))
        pid = store.allocate()
        with pytest.raises(KeyError):
            store.read_many([pid, 42])
        assert store.log.pages_accessed == 1

    @given(
        capacity=st.integers(1, 5),
        runs=st.lists(
            st.lists(st.integers(1, 8), max_size=7), min_size=1, max_size=12
        ),
        query_starts=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_runs_count_as_one_read_per_page(
        self, capacity, runs, query_starts, tmp_path_factory
    ):
        # A small buffer over 8 pages faults and evicts, and runs drawn
        # from 8 pages are often all resident: the one-step count of an
        # all-hit run must leave the LRU order, every counter and a file
        # store's frames exactly as one read per page does.
        path = tmp_path_factory.mktemp("runs") / "pages.bin"
        path.write_bytes(bytes(i // 256 for i in range(9 * 256)))
        cost = DiskCostModel()
        stores = [
            make(capacity, cost, str(path))
            for _ in range(2)
            for make in (_memory_store, _file_store)
        ]
        batched, single = stores[:2], stores[2:]
        try:
            for run, new_query in zip(runs, query_starts):
                for store in batched:
                    if new_query:
                        store.begin_query()
                    store.read_many(run)
                for store in single:
                    if new_query:
                        store.begin_query()
                    for page_id in run:
                        store.read(page_id)
                for a, b in zip(batched, single):
                    assert list(a.buffer._resident) == list(b.buffer._resident)
                    assert a.buffer.stats.snapshot() == b.buffer.stats.snapshot()
                    for field in AccessLog.__slots__:
                        assert getattr(a.log, field) == getattr(b.log, field)
            assert batched[1]._frames == single[1]._frames
        finally:
            for store in stores:
                if isinstance(store, FilePageStore):
                    store.close()


def _memory_store(capacity, cost, path):
    store = PageStore(buffer=BufferManager(capacity), cost_model=cost)
    for _ in range(9):
        store.allocate()
    return store


def _file_store(capacity, cost, path):
    return FilePageStore(
        path,
        256,
        allocated_pages=8,
        buffer=BufferManager(capacity),
        cost_model=cost,
    )
