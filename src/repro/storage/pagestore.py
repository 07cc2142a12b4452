"""Simulated paged storage: page id allocation and access accounting.

A :class:`PageStore` plays the role of the disk file an index lives in. It
allocates page ids, routes every logical page access through an LRU
:class:`~repro.storage.buffer.BufferManager`, and counts accesses and
faults, random and sequential apart, in its :class:`AccessLog`. Where
a price is wanted, :mod:`repro.storage.costmodel` prices the counts.

In-memory access methods (Gauss-tree, X-tree, sequential scan) do not
serialise their nodes on every visit — that would only burn Python CPU
without changing any reported metric — but the byte-level encoding exists
and is round-trip tested in :mod:`repro.storage.serializer`, and
capacities are *derived* from the byte layout, so the page counts are the
ones a byte-faithful implementation shows. The byte-faithful
implementation itself is :class:`~repro.storage.filestore.FilePageStore`:
a disk-opened Gauss-tree (``GaussTree.open``) reads, caches and decodes
real page bytes through the same buffer and accounting.
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.buffer import BufferManager

__all__ = ["PageStore", "AccessLog"]


class AccessLog:
    """Per-query access counters, reset by the caller between queries.

    ``page_faults`` counts every access that missed the buffer;
    ``faulted_runs`` counts the sequential runs
    (:meth:`PageStore.read_sequential_run`) that faulted at least one
    page and ``faulted_run_pages`` the pages they faulted, so the
    remaining ``page_faults - faulted_run_pages`` were random reads.
    ``pages_written`` counts page-image installs on the writable storage
    path; it is kept separate from ``pages_accessed`` because the
    paper's page-access metric is defined over query reads only.
    ``evictions`` counts LRU evictions this query forced — the signal
    that a query's working set outran the buffer, surfaced through
    ``QueryStats.buffer_evictions`` into the slow-query log.
    """

    __slots__ = (
        "pages_accessed", "page_faults", "faulted_runs", "faulted_run_pages",
        "pages_written", "evictions",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pages_accessed = 0
        self.page_faults = 0
        self.faulted_runs = 0
        self.faulted_run_pages = 0
        self.pages_written = 0
        self.evictions = 0


class PageStore:
    """Allocates pages and accounts for their accesses.

    Parameters
    ----------
    buffer:
        The LRU buffer in front of the simulated disk. Defaults to an
        unbounded-feeling large cache; experiments pass a sized one.
    """

    def __init__(self, buffer: BufferManager | None = None) -> None:
        self.buffer = buffer if buffer is not None else BufferManager(1 << 20)
        self._next_page_id = 0
        self._allocated: set[int] = set()
        self.log = AccessLog()
        # Buffer-eviction count at begin_query(); evictions only happen
        # inside BufferManager.access(), so the per-query delta is exact
        # and costs one subtraction on the fault path, nothing on hits.
        self._evictions_base = self.buffer.stats.evictions

    # -- allocation --------------------------------------------------------

    def allocate(self) -> int:
        """Reserve a fresh page id."""
        pid = self._next_page_id
        self._next_page_id += 1
        self._allocated.add(pid)
        return pid

    def free(self, page_id: int) -> None:
        """Release a page (after node merges/deletes)."""
        self._allocated.discard(page_id)
        self.buffer.invalidate(page_id)

    @property
    def allocated_pages(self) -> int:
        return len(self._allocated)

    # -- access ------------------------------------------------------------

    def read(self, page_id: int) -> None:
        """One random page read through the buffer."""
        self._read_each((page_id,))

    def read_many(self, page_ids: Sequence[int]) -> bool:
        """Random page reads through the buffer, in order: the counters,
        the buffer's LRU order and its faults are those of one
        :meth:`read` per page, paid in one call. A run whose pages are
        all resident, every page of a warm tree's sweep, is counted in
        one step (:meth:`BufferManager.access_resident`); returns
        whether it was."""
        if self._allocated.issuperset(page_ids) and (
            self.buffer.access_resident(page_ids)
        ):
            self.log.pages_accessed += len(page_ids)
            return True
        self._read_each(page_ids)
        return False

    def _read_each(self, page_ids: Sequence[int]) -> None:
        """:meth:`read_many`, one buffer access per page."""
        allocated = self._allocated
        log = self.log
        access = self.buffer.access
        for page_id in page_ids:
            if page_id not in allocated:
                raise KeyError(f"page {page_id} is not allocated")
            log.pages_accessed += 1
            if not access(page_id):
                log.page_faults += 1
                log.evictions = max(
                    0, self.buffer.stats.evictions - self._evictions_base
                )

    def read_sequential_run(self, page_ids: list[int]) -> None:
        """Read a contiguous run of pages, as a sequential scan streams
        them.

        Pages already resident are still *accessed* (the paper counts
        logical accesses); a run that faults counts once in
        ``faulted_runs`` and its faulted pages in ``faulted_run_pages``
        (the cost model charges it one positioning delay and a transfer
        per faulted page).
        """
        faulted = 0
        for pid in page_ids:
            if pid not in self._allocated:
                raise KeyError(f"page {pid} is not allocated")
            self.log.pages_accessed += 1
            if not self.buffer.access(pid):
                self.log.page_faults += 1
                faulted += 1
        if faulted:
            self.log.faulted_runs += 1
            self.log.faulted_run_pages += faulted
            self.log.evictions = max(
                0, self.buffer.stats.evictions - self._evictions_base
            )

    # -- experiment plumbing -----------------------------------------------

    def begin_query(self) -> None:
        """Reset the per-query access log."""
        self.log.reset()
        self._evictions_base = self.buffer.stats.evictions

    def cold_start(self) -> None:
        """Flush the buffer before an experiment, as the paper does."""
        self.buffer.cold_start()

    def __repr__(self) -> str:
        return (
            f"PageStore(allocated={len(self._allocated)}, "
            f"buffer={self.buffer.capacity_pages} pages)"
        )
