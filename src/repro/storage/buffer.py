"""LRU buffer manager over a simulated page store.

The paper's experiments "used up to 50 MByte as database cache which was
cold started before each experiment". The :class:`BufferManager` reproduces
that: it tracks which page ids are resident, evicts least-recently-used
pages when the budget is exhausted, and counts hits and faults. A page
*access* always counts toward the paper's "page accesses" metric; only a
*fault* costs simulated disk time.

The buffer is deliberately independent of page contents — the access
methods in this repository keep their nodes in Python objects and route
every logical node visit through :meth:`BufferManager.access` with the
node's page id, which is exactly the information the paper's metric needs.
A byte-holding page store registers an eviction listener to keep its
frame cache in step with residency; committed page images that have not
reached the main file yet live in the store, not here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.obs import metrics as _obs_metrics

__all__ = ["BufferManager", "BufferStats"]


class BufferStats:
    """Counters of buffer activity since construction or the last reset."""

    __slots__ = ("accesses", "hits", "faults", "evictions")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.faults = 0
        self.evictions = 0

    def reset(self) -> None:
        """Zero every counter in place (identity-preserving, so
        scrape-time collectors keep observing this object)."""
        self.accesses = 0
        self.hits = 0
        self.faults = 0
        self.evictions = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served from the buffer (0 if unused)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy, convenient for experiment logs."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "faults": self.faults,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"BufferStats(accesses={self.accesses}, hits={self.hits}, "
            f"faults={self.faults}, evictions={self.evictions})"
        )


class BufferManager:
    """A fixed-capacity LRU page cache with hit/fault accounting.

    Parameters
    ----------
    capacity_pages:
        Number of pages the cache holds. ``0`` disables caching (every
        access faults). Use :meth:`from_bytes` to size it like the paper
        ("up to 50 MByte").
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_pages}")
        self._capacity = capacity_pages
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.stats = BufferStats()
        # Callbacks fired with a page id whenever that page leaves the
        # buffer (eviction, invalidation or cold start). A byte-holding
        # page store registers one to keep its frame cache in sync with
        # residency, and detaches it on close.
        self._evict_listeners: list[Callable[[int], None]] = []
        # Scrape-time metrics collection: the global /metrics series sum
        # live buffers' counters, so access() pays nothing per page.
        _obs_metrics.track_buffer(self)

    @classmethod
    def from_bytes(cls, capacity_bytes: int, page_size: int) -> "BufferManager":
        """Size the buffer by a byte budget, like the paper's 50 MB cache."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        return cls(capacity_bytes // page_size)

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    def access(self, page_id: int) -> bool:
        """Touch a page; returns ``True`` on a hit, ``False`` on a fault.

        A fault brings the page in, evicting the LRU page if full.
        """
        self.stats.accesses += 1
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.stats.hits += 1
            return True
        self.stats.faults += 1
        if self._capacity == 0:
            return False
        if len(self._resident) >= self._capacity:
            victim, _ = self._resident.popitem(last=False)
            self.stats.evictions += 1
            self._notify_evict(victim)
        self._resident[page_id] = None
        return False

    def add_evict_listener(self, listener: Callable[[int], None]) -> None:
        """Register an additional page-departure callback."""
        self._evict_listeners.append(listener)

    def remove_evict_listener(self, listener: Callable[[int], None]) -> None:
        """Detach a callback registered with :meth:`add_evict_listener`."""
        try:
            self._evict_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_evict(self, page_id: int) -> None:
        for listener in self._evict_listeners:
            listener(page_id)

    def contains(self, page_id: int) -> bool:
        """Residency check that does *not* count as an access."""
        return page_id in self._resident

    def invalidate(self, page_id: int) -> None:
        """Drop a page (e.g. after a node split rewrote it)."""
        if page_id in self._resident:
            del self._resident[page_id]
            self._notify_evict(page_id)

    def cold_start(self) -> None:
        """Empty the cache, as the paper does before each experiment.

        Keeps the statistics; call :meth:`reset_stats` too for a fully
        fresh measurement.
        """
        if self._evict_listeners:
            for page_id in self._resident:
                self._notify_evict(page_id)
        self._resident.clear()

    def reset_stats(self) -> None:
        """Zero the counters; the pre-reset totals are folded into the
        global metrics ledger so cumulative series stay monotone."""
        _obs_metrics.retire_buffer_stats(self.stats)
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"BufferManager(capacity={self._capacity} pages, "
            f"resident={len(self._resident)}, {self.stats!r})"
        )
