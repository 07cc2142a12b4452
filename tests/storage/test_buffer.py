"""Unit tests for the LRU buffer manager."""

import pytest

from repro.storage.buffer import BufferManager


class TestLRU:
    def test_first_access_faults(self):
        buf = BufferManager(4)
        assert buf.access(1) is False
        assert buf.access(1) is True

    def test_eviction_order_is_lru(self):
        buf = BufferManager(2)
        buf.access(1)
        buf.access(2)
        buf.access(1)  # 1 is now most recent
        buf.access(3)  # evicts 2
        assert buf.contains(1)
        assert not buf.contains(2)
        assert buf.contains(3)

    def test_zero_capacity_always_faults(self):
        buf = BufferManager(0)
        assert buf.access(7) is False
        assert buf.access(7) is False
        assert buf.stats.faults == 2

    def test_capacity_respected(self):
        buf = BufferManager(3)
        for pid in range(10):
            buf.access(pid)
        assert buf.resident_pages == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferManager(-1)


class TestStats:
    def test_counters(self):
        buf = BufferManager(2)
        buf.access(1)  # fault
        buf.access(1)  # hit
        buf.access(2)  # fault
        buf.access(3)  # fault + eviction
        s = buf.stats
        assert s.accesses == 4
        assert s.hits == 1
        assert s.faults == 3
        assert s.evictions == 1
        assert s.hit_ratio == pytest.approx(0.25)

    def test_hit_ratio_empty(self):
        assert BufferManager(2).stats.hit_ratio == 0.0

    def test_snapshot(self):
        buf = BufferManager(2)
        buf.access(1)
        snap = buf.stats.snapshot()
        assert snap == {
            "accesses": 1,
            "hits": 0,
            "faults": 1,
            "evictions": 0,
        }

    def test_reset_stats(self):
        buf = BufferManager(2)
        buf.access(1)
        buf.reset_stats()
        assert buf.stats.accesses == 0


class TestColdStart:
    def test_cold_start_clears_residency(self):
        buf = BufferManager(4)
        buf.access(1)
        buf.cold_start()
        assert not buf.contains(1)
        assert buf.access(1) is False  # faults again

    def test_contains_does_not_count(self):
        buf = BufferManager(4)
        buf.contains(1)
        assert buf.stats.accesses == 0

    def test_invalidate(self):
        buf = BufferManager(4)
        buf.access(1)
        buf.invalidate(1)
        assert not buf.contains(1)

    def test_from_bytes_sizing(self):
        buf = BufferManager.from_bytes(50 * 1024 * 1024, 8192)
        assert buf.capacity_pages == 50 * 1024 * 1024 // 8192

    def test_from_bytes_bad_page_size(self):
        with pytest.raises(ValueError):
            BufferManager.from_bytes(1024, 0)


class TestEvictionListeners:
    def test_listener_fires_on_lru_eviction(self):
        buf = BufferManager(2)
        evicted = []
        buf.add_evict_listener(evicted.append)
        buf.access(1)
        buf.access(2)
        buf.access(3)  # evicts 1
        assert evicted == [1]

    def test_listener_fires_on_invalidate_and_cold_start(self):
        buf = BufferManager(4)
        evicted = []
        buf.add_evict_listener(evicted.append)
        buf.access(1)
        buf.access(2)
        buf.invalidate(1)
        assert evicted == [1]
        buf.invalidate(99)  # not resident: no callback
        assert evicted == [1]
        buf.cold_start()
        assert sorted(evicted) == [1, 2]

    def test_remove_listener_detaches(self):
        buf = BufferManager(1)
        evicted = []
        buf.add_evict_listener(evicted.append)
        buf.remove_evict_listener(evicted.append)
        buf.access(1)
        buf.access(2)  # evicts 1, but nobody is listening anymore
        assert evicted == []
        buf.remove_evict_listener(evicted.append)  # absent: no-op

    def test_no_listener_by_default(self):
        buf = BufferManager(1)
        buf.access(1)
        buf.access(2)  # evicts silently
        assert buf.stats.evictions == 1
