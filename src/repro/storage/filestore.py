"""A page store whose pages are real bytes in a real file.

:class:`FilePageStore` upgrades the simulated accounting of
:class:`~repro.storage.pagestore.PageStore` to an actual storage path: a
:meth:`read` still routes through the LRU
:class:`~repro.storage.buffer.BufferManager` exactly like the base
class — same logical page-access counts, same fault accounting — but it
additionally *returns the page's bytes*, fetched from the file on a fault
and served from an in-memory frame cache on a hit. The frame cache mirrors
buffer residency via the buffer's eviction hook, so the bytes held in
memory are exactly the pages the simulated 50 MB cache says are resident.

In read-only mode the store only reads; the file layout (header in the
page-0 slot, node pages at ``page_id * page_size``, key table behind the
last page) is owned by :mod:`repro.gausstree.persist`.

In **writable** mode (``writable=True``) the store becomes the data half
of a write-ahead protocol (see :mod:`repro.storage.wal`):

* :meth:`write` installs a committed page image *in memory only*: into
  the store's pending map, the one home of every committed image that
  the main file does not hold yet, and into the frame cache while the
  page is resident. The main file stays untouched between checkpoints,
  which is what makes crash recovery a pure WAL replay;
* reads serve the frame cache, then the pending images, then the main
  file, so the store always returns the latest committed bytes;
* :meth:`allocate` reuses ids from the free-page list (populated by node
  deletes and persisted in the v2 header) before growing the file.

The checkpoint itself is driven by
:class:`repro.gausstree.persist.TreeWriter` through
:meth:`publish_checkpoint`. Every new file generation — a checkpoint,
a crash recovery, a replica resync — is written by one function,
:func:`publish_generation`: it builds the generation as a complete
sibling file and atomically renames it over the index, so readers that
already hold the file open keep serving the generation they opened
(reader snapshot isolation).
"""

from __future__ import annotations

import os
import uuid
from typing import BinaryIO, Callable, Mapping, Sequence

from repro.storage.buffer import BufferManager
from repro.storage.pagestore import PageStore

__all__ = ["FilePageStore", "publish_generation"]


class FilePageStore(PageStore):
    """Pages live at ``page_id * page_size`` inside a read-only file.

    Page id 0 is reserved for the index header, so node pages occupy ids
    ``1..allocated_pages``.

    Parameters
    ----------
    path:
        An index file written by :func:`repro.gausstree.persist.save_tree`.
    page_size:
        Must match the :class:`~repro.storage.layout.PageLayout` of the
        index stored in the file.
    allocated_pages:
        How many node pages (ids ``1..n``) the file holds.
    buffer:
        Forwarded to :class:`~repro.storage.pagestore.PageStore`. The
        store registers an eviction listener on the buffer and detaches
        it on :meth:`close`. Buffer residency is keyed by *store-local*
        page ids, so one buffer cannot serve two stores at once — their
        ids would collide and cold reads of one file would count as hits
        on the other; passing a buffer with a listener still attached
        raises, and any stale residency from a previous (closed) owner
        is flushed on attach.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int,
        *,
        allocated_pages: int = 0,
        free_pages: tuple[int, ...] = (),
        writable: bool = False,
        buffer: BufferManager | None = None,
        file_factory: Callable = open,
    ) -> None:
        super().__init__(buffer=buffer)
        if page_size < 256:
            raise ValueError(f"page_size too small: {page_size}")
        self.path = os.fspath(path)
        self.page_size = page_size
        self.writable = writable
        self._file_factory = file_factory
        self._file = file_factory(self.path, "r+b" if writable else "rb")
        # Page 0 is the header slot; node pages start at 1. The free list
        # holds allocated-region ids currently unused (LIFO reuse).
        self._next_page_id = 1 + allocated_pages
        self._allocated = set(range(1, 1 + allocated_pages))
        self._free: list[int] = [p for p in free_pages if p in self._allocated]
        self._allocated.difference_update(self._free)
        # Every committed page image the main file does not hold yet,
        # until the next checkpoint publishes it.
        self._pending: dict[int, bytes] = {}
        # Bytes of the buffer-resident pages; kept in lockstep with the
        # buffer via an eviction listener, detached again on close().
        if self.buffer._evict_listeners:
            raise ValueError(
                "this BufferManager already serves another page store; "
                "buffer residency is keyed by store-local page ids, so "
                "every open index file needs its own buffer"
            )
        # Flush residency a previous owner may have left behind — stale
        # foreign page ids would otherwise count this store's cold reads
        # as hits. (Concurrent sharing with an in-memory PageStore, which
        # registers no listener, remains unsupported for the same reason.)
        self.buffer.cold_start()
        self._frames: dict[int, bytes] = {}
        self.buffer.add_evict_listener(self._drop_frame)

    # -- byte fetching -------------------------------------------------------

    def _drop_frame(self, page_id: int) -> None:
        self._frames.pop(page_id, None)

    def _read_from_file(self, page_id: int) -> bytes:
        pending = self._pending.get(page_id)
        if pending is not None:
            return pending
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise IOError(
                f"short read: page {page_id} of {self.path} has "
                f"{len(data)} bytes, expected {self.page_size}"
            )
        return data

    # -- access --------------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        """One random page read through the buffer; returns the bytes.

        Accounting is the base class's, verbatim (a logical access always
        counts, only a buffer miss counts a fault) — but the read
        additionally fetches the page from the file on a miss and serves
        the bytes from the resident frame on a hit.
        """
        # The accounting is the base class's; the frame is filled here,
        # which keeps a traversal's one-page reads at about half the
        # cost of a trip through this class's read_many.
        self._read_each((page_id,))
        data = self._frames.get(page_id)
        if data is None:
            data = self._read_from_file(page_id)
            if self.buffer.contains(page_id):
                self._frames[page_id] = data
        return data

    def read_many(self, page_ids: Sequence[int]) -> None:
        """Random page reads through the buffer, in order, with the base
        class's accounting; afterwards every read page the buffer holds
        has its frame, as after one :meth:`read` per page (a page
        evicted later in the same call has none either way)."""
        super().read_many(page_ids)
        frames = self._frames
        resident = self.buffer.contains
        for page_id in page_ids:
            if page_id not in frames and resident(page_id):
                frames[page_id] = self._read_from_file(page_id)

    def fetch_page(self, page_id: int) -> bytes:
        """Fetch bytes without touching the access accounting.

        Used for structural materialization right after a counted
        :meth:`read` (the frame is already resident) and for offline walks
        (saving, iteration, invariant checks) that the paper's page-access
        metric does not count.
        """
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} is not allocated")
        data = self._frames.get(page_id)
        if data is None:
            data = self._read_from_file(page_id)
        return data

    def read_tail(self, offset: int, size: int) -> bytes:
        """Read raw bytes past the page region (key table)."""
        self._file.seek(offset)
        data = self._file.read(size)
        if len(data) != size:
            raise IOError(f"short read at offset {offset} of {self.path}")
        return data

    # -- writing (committed-image installs; file IO only at checkpoint) ------

    def _assert_writable(self) -> None:
        if not self.writable:
            raise RuntimeError(f"{self.path!r} is opened read-only")

    def write(self, page_id: int, data: bytes) -> None:
        """Install a committed page image (WAL already holds it durably).

        Counts one buffer access; the image joins the pending map, and
        the frame cache while the buffer holds the page. The main file
        is untouched until the next checkpoint, so a crash at any point
        replays from the WAL.
        """
        self._assert_writable()
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} is not allocated")
        if len(data) != self.page_size:
            raise ValueError(
                f"page image has {len(data)} bytes, expected {self.page_size}"
            )
        self.log.pages_written += 1
        self.buffer.access(page_id)
        self._pending[page_id] = data
        if self.buffer.contains(page_id):
            self._frames[page_id] = data

    # -- allocation with free-page reuse -------------------------------------

    def allocate(self) -> int:
        if self.writable and self._free:
            pid = self._free.pop()
            self._allocated.add(pid)
            return pid
        return super().allocate()

    def free(self, page_id: int) -> None:
        # A freed page's unpublished image must not be checkpointed.
        self._pending.pop(page_id, None)
        self._frames.pop(page_id, None)
        was_allocated = page_id in self._allocated
        super().free(page_id)
        if self.writable and was_allocated:
            if page_id == self._next_page_id - 1:
                self._next_page_id -= 1  # shrink the high-water mark
            else:
                self._free.append(page_id)

    @property
    def page_count(self) -> int:
        """High-water page id (node pages occupy ids ``1..page_count``)."""
        return self._next_page_id - 1

    @property
    def free_pages(self) -> tuple[int, ...]:
        """Free-listed page ids, in reuse (LIFO) order from the right."""
        return tuple(self._free)

    # -- checkpoint IO (driven by TreeWriter) --------------------------------

    def dirty_images(self) -> dict[int, bytes]:
        """Latest committed image of every page not yet in the main file."""
        return dict(self._pending)

    def mark_all_clean(self) -> None:
        """Checkpoint epilogue: every image reached the main file."""
        self._pending.clear()

    def publish_checkpoint(
        self, images: Mapping[int, bytes], table: bytes, header_page: bytes
    ) -> None:
        """Publish a checkpoint as a whole new file *generation*.

        The current generation's pages overlaid with ``images``, the key
        ``table`` and ``header_page`` go through
        :func:`publish_generation`; this store's own handle is then
        re-opened onto the new generation with every cache intact (page
        ids and images are unchanged; the caller still runs
        :meth:`mark_all_clean` afterwards). A crash anywhere before the
        rename leaves the old generation and the WAL exactly as they
        were.
        """
        self._assert_writable()
        publish_generation(
            self.path,
            self._file,
            page_size=self.page_size,
            page_count=self.page_count,
            images=images,
            table=table,
            header_page=header_page,
            file_factory=self._file_factory,
        )
        self._file.close()
        self._file = self._file_factory(self.path, "r+b")

    def rebind(self, allocated_pages: int) -> None:
        """Adopt a freshly rewritten file generation at the same path.

        After an in-place compacting save the old file handle points at
        the replaced inode; drop every cache, reset allocation to the
        dense ids ``1..allocated_pages`` (empty free list), and reopen
        through the original ``file_factory`` so crash injection and
        other wrappers stay in force.
        """
        self._assert_writable()
        self.buffer.cold_start()
        self._frames.clear()
        self._pending.clear()
        self._allocated = set(range(1, allocated_pages + 1))
        self._next_page_id = allocated_pages + 1
        self._free = []
        self._file.close()
        self._file = self._file_factory(self.path, "r+b")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
        self.buffer.remove_evict_listener(self._drop_frame)
        self._frames.clear()
        self._pending.clear()

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FilePageStore({self.path!r}, pages={len(self._allocated)}, "
            f"page_size={self.page_size}, resident={len(self._frames)})"
        )


def publish_generation(
    path: str | os.PathLike,
    base: BinaryIO,
    *,
    page_size: int,
    page_count: int,
    images: Mapping[int, bytes],
    table: bytes,
    header_page: bytes,
    file_factory: Callable = open,
) -> None:
    """Atomically replace the index file at ``path`` with a new generation.

    The generation is built in a uniquely named sibling temp file: the
    header slot and pages ``1..page_count`` copied from ``base`` (an open
    binary file of the current generation), zero-filled where ``base``
    ends early, overlaid with ``images`` (page id to image), the key
    ``table`` behind the last page and ``header_page`` in slot 0. The
    temp file is fsynced and renamed over ``path``, so a reader holding
    the old file open keeps its inode untouched; on any failure the temp
    file is removed and ``path`` is left as it was. Checkpoints, crash
    recovery and replica resyncs all publish through this function.
    """
    path = os.fspath(path)
    kt_offset = (page_count + 1) * page_size
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(
        directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.gen"
    )
    out = file_factory(tmp_path, "xb")
    try:
        base.seek(0)
        remaining = kt_offset
        while remaining > 0:
            chunk = base.read(min(1 << 20, remaining))
            if not chunk:
                break
            out.write(chunk)
            remaining -= len(chunk)
        if remaining > 0:
            # Pages allocated past the base's end were never published,
            # so ``images`` holds every one of them.
            out.write(b"\x00" * remaining)
        for pid in sorted(images):
            out.seek(pid * page_size)
            out.write(images[pid])
        out.seek(kt_offset)
        out.write(table)
        # Drops any image of a page freed past the new high-water mark.
        out.truncate(kt_offset + len(table))
        out.seek(0)
        out.write(header_page)
        out.flush()
        os.fsync(out.fileno())
        out.close()
        os.replace(tmp_path, path)
    except BaseException:
        try:
            out.close()
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise
