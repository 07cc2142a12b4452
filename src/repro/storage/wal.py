"""Write-ahead log for the writable Gauss-tree storage path.

Durability protocol (redo-only; page images and row edits):

* Between checkpoints the main index file is **never** written. Every
  mutating tree operation appends one *transaction* to the sidecar WAL
  file: a ``ROWS`` record per leaf whose rows it only appended or
  removed (the page id, then each appended row's key slot, means and
  sigmas, or each removed row's position, in order), the full image of
  every other page it dirtied (a split leaf, a new page, an inner page),
  the application keys it appended to the key table, a ``META`` record
  carrying the header's used bytes (the fixed header plus the free-page
  list, not the zero-padded page), and finally a ``COMMIT`` record —
  then the WAL is flushed (and fsynced, unless the caller opted out).
  A one-row insert into a leaf logs about 200 bytes, not two 8 KiB
  pages.
* **Group commit** batches N logical operations into *one* transaction:
  a :class:`WALGroup` buffers the page images, row edits, key appends
  and header meta of every operation in the batch, deduplicating page
  images (the latest image per page id wins — a leaf split by the
  batch is logged once) and keeping each leaf's row edits in order in
  one ``ROWS`` record, and seals everything with a single ``COMMIT``
  record and a single fsync. Because only the final ``COMMIT`` makes
  any of it durable, recovery replays a batch all-or-nothing: a crash
  anywhere inside the group's append tears the whole batch away, never
  a partial one.
* Row edits do not replay idempotently the way images do: applied twice
  to a page, an append adds its row twice. So every transaction that
  precedes a publish logs a full image of each page with a ``ROWS``
  record since its last image, and a replay after the publish starts
  from those images.
* A checkpoint first logs a ``CKPT_BASE`` transaction holding the
  *entire* key table and those images (making replay independent of
  the main file), then builds a new main-file generation (old bytes +
  dirty pages + key table + header), fsyncs it and publishes it by
  atomic rename, and only then truncates the WAL — ``fsync`` ordering
  *WAL before the new generation before its rename before the
  truncate*. Already-open readers keep the pre-checkpoint inode (reader
  snapshot isolation).
* Recovery (:func:`repro.gausstree.persist.recover_index`) scans the WAL,
  keeps the longest prefix of checksum-valid records, applies everything
  up to the last ``COMMIT`` and discards the torn tail — so a crash at
  any byte leaves the index equal to a committed prefix of the workload.
  A committed record of a type it does not know stops it before it
  writes anything.

Record wire format (little-endian)::

    <payload_len u32> <type u8> <payload bytes> <crc32 u32>

where the CRC covers the type byte plus the payload. The file starts
with the 8-byte magic ``GAUSWAL2``; a missing or mangled magic reads as
an empty log (the writable open then re-initializes it).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Callable

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

__all__ = [
    "WriteAheadLog",
    "WALGroup",
    "WAL_MAGIC",
    "REC_PAGE",
    "REC_KEYS",
    "REC_META",
    "REC_CKPT_BASE",
    "REC_COMMIT",
    "REC_ROWS",
    "RECORD_OVERHEAD",
    "pack_row_append",
    "pack_row_remove",
    "unpack_rows",
]

WAL_MAGIC = b"GAUSWAL2"

REC_PAGE = 1  # payload: <page_id u32> <page image>
REC_KEYS = 2  # payload: UTF-8 JSON list of tagged keys appended this txn
REC_META = 3  # payload: the header's used bytes (fixed header + free list)
REC_CKPT_BASE = 4  # payload: UTF-8 JSON of the entire key table
REC_COMMIT = 5  # payload: empty
REC_ROWS = 6  # payload: <page_id u32> then the leaf's row edits, in order

_REC_HEAD = struct.Struct("<IB")
_CRC = struct.Struct("<I")

#: Bytes a record adds to its payload: the length and type head, the CRC.
RECORD_OVERHEAD = _REC_HEAD.size + _CRC.size

# A ROWS edit: a tag, then an appended row's key slot (its means and
# sigmas follow, d float64 each) or a removed row's position.
_ROW_APPEND = struct.Struct("<Bq")
_ROW_REMOVE = struct.Struct("<BI")
_APPEND, _REMOVE = 0, 1
_PAGE_ID = struct.Struct("<I")

#: Upper bound on a single record payload; a garbage length field past
#: this reads as a torn tail instead of a giant allocation.
_MAX_PAYLOAD = 1 << 30


def pack_row_append(slot: int, mu: bytes, sigma: bytes) -> bytes:
    """One ``ROWS`` edit appending a row: its key slot, then its ``d``
    little-endian float64 means and sigmas as raw bytes."""
    return _ROW_APPEND.pack(_APPEND, slot) + mu + sigma


def pack_row_remove(position: int) -> bytes:
    """One ``ROWS`` edit removing the row at ``position``."""
    return _ROW_REMOVE.pack(_REMOVE, position)


def unpack_rows(payload: bytes, dims: int) -> list:
    """The row edits of a ``ROWS`` payload, in order: ``(slot, mu,
    sigma)`` for an appended row (``mu`` and ``sigma`` the row's raw
    bytes), an ``int`` position for a removed one."""
    (page_id,) = _PAGE_ID.unpack_from(payload, 0)
    row = 8 * dims
    edits: list = []
    offset = _PAGE_ID.size
    while offset < len(payload):
        tag = payload[offset]
        if tag == _APPEND:
            _, slot = _ROW_APPEND.unpack_from(payload, offset)
            offset += _ROW_APPEND.size
            edits.append(
                (
                    slot,
                    payload[offset : offset + row],
                    payload[offset + row : offset + 2 * row],
                )
            )
            offset += 2 * row
        elif tag == _REMOVE:
            edits.append(_ROW_REMOVE.unpack_from(payload, offset)[1])
            offset += _ROW_REMOVE.size
        else:
            raise ValueError(
                f"ROWS record of page {page_id} holds an edit of unknown "
                f"kind {tag} at byte {offset}"
            )
    if offset != len(payload):
        raise ValueError(
            f"ROWS record of page {page_id} ends inside an edit "
            f"({len(payload)} bytes for {dims}-d rows)"
        )
    return edits


class WriteAheadLog:
    """Appender/reader for one index's sidecar WAL file.

    Parameters
    ----------
    path:
        The WAL file, conventionally ``<index path> + ".wal"``.
    fsync:
        Whether :meth:`commit` fsyncs. Disabling trades the durability
        of the newest transactions for insert throughput; recovery
        correctness is unaffected (the tail simply may be shorter).
    file_factory:
        ``open``-compatible callable; the crash tests pass a
        :class:`~repro.storage.fault.FaultInjector` bound opener.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        file_factory: Callable = open,
    ) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        exists = os.path.exists(self.path)
        self._file = file_factory(self.path, "r+b" if exists else "w+b")
        if not exists:
            self._file.write(WAL_MAGIC)
            self._file.flush()
            if fsync:
                os.fsync(self._file.fileno())
        else:
            self._file.seek(0, os.SEEK_END)

    # -- appending -----------------------------------------------------------

    def append(self, rtype: int, payload: bytes) -> None:
        """Buffer one record; durable only after :meth:`commit`."""
        self._file.write(_REC_HEAD.pack(len(payload), rtype))
        self._file.write(payload)
        self._file.write(_CRC.pack(zlib.crc32(bytes([rtype]) + payload)))

    def append_page(self, page_id: int, image: bytes) -> None:
        self.append(REC_PAGE, _PAGE_ID.pack(page_id) + image)

    def append_rows(self, page_id: int, edits: bytes) -> None:
        """One leaf's packed row edits (:func:`pack_row_append`,
        :func:`pack_row_remove`), in order, as a ``ROWS`` record."""
        self.append(REC_ROWS, _PAGE_ID.pack(page_id) + edits)

    def commit(self) -> None:
        """Seal the buffered records with a COMMIT and make them durable.

        Instrumented: counts the commit (and fsync, with its latency)
        on the global metrics registry and adds a ``wal.commit`` span
        when a trace is active — the bottom of the request timeline.
        """
        started = time.perf_counter()
        self.append(REC_COMMIT, b"")
        self._file.flush()
        if self.fsync:
            fsync_started = time.perf_counter()
            os.fsync(self._file.fileno())
            fsync_elapsed = time.perf_counter() - fsync_started
            _obs_metrics.counter(
                "repro_wal_fsync_total", "WAL commit fsync calls."
            ).inc()
            _obs_metrics.histogram(
                "repro_wal_fsync_seconds", "WAL commit fsync latency."
            ).observe(fsync_elapsed)
        _obs_metrics.counter(
            "repro_wal_commits_total", "Sealed WAL transactions."
        ).inc()
        active = _obs_trace.current_trace()
        if active is not None:
            elapsed = time.perf_counter() - started
            active.add(
                "wal.commit",
                start=active.now() - elapsed,
                dur=elapsed,
                status="fsync" if self.fsync else "buffered",
            )

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def tell(self) -> int:
        """Current append offset (a transaction's rollback point)."""
        return self._file.tell()

    def truncate_to(self, offset: int) -> None:
        """Roll back an unsealed transaction to its start offset."""
        self._file.seek(offset)
        self._file.truncate(offset)
        self._file.flush()

    # -- lifecycle -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes currently in the WAL file (records plus magic)."""
        return os.path.getsize(self.path)

    @property
    def is_empty(self) -> bool:
        """Whether the log holds no records (just the magic, or less)."""
        return self.size <= len(WAL_MAGIC)

    def reset(self) -> None:
        """Empty the log (after a completed checkpoint made it redundant)."""
        self._file.seek(0)
        self._file.write(WAL_MAGIC)
        self._file.truncate(len(WAL_MAGIC))
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path!r}, fsync={self.fsync})"

    # -- scanning ------------------------------------------------------------

    @staticmethod
    def _commit_ends(path: str | os.PathLike):
        """Yield the end offset of every COMMIT record, oldest first.

        Walks record headers only (seeking over payloads, no CRC work,
        O(1) memory) and stops at a torn tail, a short read or a mangled
        magic; a missing file yields nothing. Read-only opens walk
        without the index lock, so a live writer's checkpoint may
        truncate the log mid-walk; the writer publishes the checkpointed
        main file before it truncates, so a log that shrank under the
        walk holds nothing left to replay.
        """
        try:
            f = open(path, "rb")
        except FileNotFoundError:
            return
        with f:
            if f.read(len(WAL_MAGIC)) != WAL_MAGIC:
                return
            f.seek(0, os.SEEK_END)
            total = f.tell()
            offset = len(WAL_MAGIC)
            while offset + _REC_HEAD.size <= total:
                f.seek(offset)
                head = f.read(_REC_HEAD.size)
                if len(head) < _REC_HEAD.size:
                    return  # truncated by a checkpoint
                length, rtype = _REC_HEAD.unpack(head)
                end = offset + _REC_HEAD.size + length + _CRC.size
                if length > _MAX_PAYLOAD or end > total:
                    return  # torn tail
                if rtype == REC_COMMIT:
                    yield end
                offset = end

    @staticmethod
    def has_committed(path: str | os.PathLike) -> bool:
        """Cheap streaming probe: does the log hold any COMMIT record?

        Stops at the first COMMIT — a pre-check for recovery that must
        stay cheap on the multi-hundred-MB WAL a killed bulk insert
        leaves behind. May return a false positive on a log whose tail
        is garbage (the caller's full scan then finds nothing
        committed); a genuinely committed prefix is always detected
        because garbage can only follow valid records.
        """
        return next(WriteAheadLog._commit_ends(path), None) is not None

    @staticmethod
    def committed_length(path: str | os.PathLike) -> int:
        """Byte offset just past the last COMMIT record (streaming).

        Lets WAL shipping (:mod:`repro.storage.ship`) locate the durable
        prefix of a multi-hundred-MB log without materializing any
        payload. Returns ``len(WAL_MAGIC)`` for a missing, magic-less or
        commit-free log. Header-only walking cannot detect a
        checksum-corrupt committed record; the replica's own recovery
        scan (which does verify CRCs) discards such a tail on apply.
        """
        return max(WriteAheadLog._commit_ends(path), default=len(WAL_MAGIC))

    @staticmethod
    def iter_committed(path: str | os.PathLike):
        """Stream committed transactions: yields ``(records, end)``.

        ``records`` is the transaction's ``(type, payload)`` list
        (without the COMMIT) and ``end`` the byte offset just past its
        COMMIT record. Reads record-by-record, so peak memory is one
        transaction — not the whole log, which a killed bulk insert can
        grow to hundreds of MB. Stops at the first torn or
        checksum-corrupt record; records after the last COMMIT are never
        yielded. A missing file or mangled magic yields nothing.
        """
        try:
            f = open(path, "rb")
        except FileNotFoundError:
            return
        with f:
            if f.read(len(WAL_MAGIC)) != WAL_MAGIC:
                return
            f.seek(0, os.SEEK_END)
            total = f.tell()
            offset = len(WAL_MAGIC)
            f.seek(offset)
            current: list[tuple[int, bytes]] = []
            while offset + _REC_HEAD.size <= total:
                length, rtype = _REC_HEAD.unpack(f.read(_REC_HEAD.size))
                end = offset + _REC_HEAD.size + length + _CRC.size
                if length > _MAX_PAYLOAD or end > total:
                    return  # torn tail
                payload = f.read(length)
                (crc,) = _CRC.unpack(f.read(_CRC.size))
                if crc != zlib.crc32(bytes([rtype]) + payload):
                    return  # corrupt: discard this record and the rest
                if rtype == REC_COMMIT:
                    yield current, end
                    current = []
                else:
                    current.append((rtype, payload))
                offset = end

    @staticmethod
    def scan(path: str | os.PathLike) -> list[list[tuple[int, bytes]]]:
        """Committed transactions in the WAL, oldest first (fully
        materialized — use :meth:`iter_committed` for large logs)."""
        return [records for records, _ in WriteAheadLog.iter_committed(path)]


class WALGroup:
    """One batched transaction under construction (group commit).

    Buffers the effects of 1..N logical operations in memory and writes
    them to a :class:`WriteAheadLog` as a *single* transaction — one run
    of ``PAGE``/``ROWS``/``KEYS``/``META`` records sealed by one
    ``COMMIT`` and made durable by one fsync. Page images deduplicate as
    they are added: :meth:`add_page` keeps only the **latest** image per
    page id, so a page dirtied by every operation of the batch is logged
    once. Row edits accumulate: :meth:`add_rows` keeps each leaf's edits
    in the order they were added, behind its latest image, and the
    commit writes them as one ``ROWS`` record per leaf.

    Durability is all-or-nothing by construction: nothing reaches the
    log until :meth:`commit_to`, and recovery only replays record runs
    that end in a ``COMMIT`` — a crash anywhere inside the group's
    append discards the entire batch, never a prefix of it.
    """

    def __init__(self) -> None:
        #: Latest image per page id, in first-touch order (dict
        #: preserves insertion order; re-adding only swaps the image);
        #: None for a page the batch logged row edits of and no image.
        self._pages: dict[int, bytes | None] = {}
        #: Packed row edits per page id, in order, since its image.
        self._rows: dict[int, list[bytes]] = {}
        #: Tagged-JSON key-table entries appended by the batch.
        self._keys: list = []
        #: The header's used bytes (META); last set wins.
        self._meta: bytes | None = None

    def add_page(self, page_id: int, image: bytes) -> None:
        """Record the latest image of one page (dedup: replaces any
        image or row edits a previous operation of this batch logged
        for it)."""
        self._pages[page_id] = image
        self._rows.pop(page_id, None)

    def add_rows(self, page_id: int, edits: bytes) -> None:
        """Append packed row edits of one leaf (:func:`pack_row_append`,
        :func:`pack_row_remove`) after those already added for it."""
        self._pages.setdefault(page_id, None)
        self._rows.setdefault(page_id, []).append(edits)

    def add_keys(self, entries: list) -> None:
        """Append tagged key-table entries (already JSON-safe encoded)."""
        self._keys.extend(entries)

    def set_meta(self, header: bytes) -> None:
        """Set the header bytes the transaction commits under."""
        self._meta = header

    @property
    def n_pages(self) -> int:
        """Distinct pages currently buffered (after dedup): each is
        logged once, as its latest image, its row edits or both."""
        return len(self._pages)

    @property
    def is_empty(self) -> bool:
        """Whether the group holds nothing worth committing."""
        return not self._pages and not self._keys and self._meta is None

    def commit_to(self, wal: WriteAheadLog) -> None:
        """Append the buffered batch to ``wal`` as one sealed transaction.

        Writes, page by page in first-touch order, the deduplicated
        image and then one ``ROWS`` record of the edits added after it;
        one ``KEYS`` record if any keys were appended, the ``META``
        header, then ``COMMIT`` — flushed and fsynced once (under the
        log's fsync setting). The caller owns rollback on failure (see
        :meth:`repro.gausstree.persist.TreeWriter.commit`): record the
        log's offset before calling and truncate back to it if this
        raises.
        """
        if self._meta is None:
            raise ValueError(
                "a WAL group needs its META header before commit"
            )
        _obs_metrics.histogram(
            "repro_wal_group_pages",
            "Distinct pages per group-commit transaction, each logged "
            "once (an image or one ROWS record of row edits).",
            buckets=_obs_metrics.SIZE_BUCKETS,
        ).observe(self.n_pages)
        for page_id, image in self._pages.items():
            if image is not None:
                wal.append_page(page_id, image)
            rows = self._rows.get(page_id)
            if rows:
                wal.append_rows(page_id, b"".join(rows))
        if self._keys:
            wal.append(
                REC_KEYS, json.dumps(self._keys).encode("utf-8")
            )
        wal.append(REC_META, self._meta)
        wal.commit()

    def __repr__(self) -> str:
        return (
            f"WALGroup(pages={len(self._pages)}, rows={len(self._rows)}, "
            f"keys={len(self._keys)})"
        )
