"""Disk persistence for the Gauss-tree: one index file, real bytes.

The paper places the Gauss-tree "structurally in the R-tree family which
facilitates the integration into object-relational database management
systems" (Section 5.1) — i.e. the index is meant to live in pages on disk,
not in a Python object graph. This module provides that storage path on
top of the byte-faithful page codecs of :mod:`repro.storage.serializer`:

* :func:`save_tree` walks a built tree, assigns dense page ids ``1..n``
  (id 0 is the header slot), encodes every node onto a page and writes
  ``header | node pages | key table`` to a single file;
* :func:`open_tree` maps the file back into a queryable
  :class:`~repro.gausstree.tree.GaussTree` whose nodes are *stubs*:
  page id, MBR and subtree cardinality come from the parent's page, the
  payload is decoded from page bytes on first access through a
  :class:`~repro.storage.filestore.FilePageStore` — so queries on a
  freshly opened tree genuinely fetch and decode bytes, routed through
  the same :class:`~repro.storage.buffer.BufferManager` accounting the
  in-memory tree simulates. Logical page-access counts of a query are
  therefore identical on both representations, which the round-trip
  tests assert.

File layout, format **v3** (all little-endian)::

    offset 0            fixed header (magic, version, geometry, root id,
                        page count, object count, key-table pointer,
                        free-page count) followed by the free-page list
                        (u32 each), zero-padded to one page
    page_id * page_size node pages (ids 1..page_count), encoded by
                        repro.storage.serializer
    key_table_offset    JSON key table mapping the int64 key slots of
                        leaf pages back to application keys

v3 stores leaf pages **columnar** (page kind 3: contiguous mu block,
sigma block, key-slot block) so a leaf decodes into ready-to-use
``(n, d)`` ndarrays without copying. Format v2 (PR 2) used interleaved
per-entry leaf pages (kind 1) and is still fully supported — reading
*and* writing: its leaves decode into the same columns (copied from the
interleaved rows), and a v2 file opened writable keeps committing v2
pages, preserving its format.
Format v1 (PR 1) is v2 minus the free-page list; v1 files still open,
read-only. Readers dispatch per page on the kind byte, so the version
field only gates the header shape and the write path. Keys may be
``None``, bools, ints, floats, strings or (nested) tuples of those;
anything else fails the save with a ``TypeError``.

**Writable opens.** ``open_tree(path, writable=True)`` attaches a
:class:`TreeWriter` implementing a redo-only write-ahead protocol (see
:mod:`repro.storage.wal` for the fsync ordering and
:func:`recover_index` for the replay): every ``insert``/``delete``
commits one WAL transaction holding the dirtied page images, appended
keys and the new header — and ``GaussTree.insert_many`` coalesces a
whole batch into *one* such transaction (group commit: one fsync,
page images deduplicated, recovery all-or-nothing per batch); the main
file is republished (a new generation, swapped in by atomic rename so
already-open readers keep their pre-checkpoint snapshot) only at a
checkpoint (``tree.flush()`` / ``tree.close()``). Opening a file whose
WAL holds
committed transactions — a crashed writer — replays them first, so
readers and writers always see the last committed state. Free pages from
node deletes are reused by later splits via the header's free-page list
instead of growing the file forever.
"""

from __future__ import annotations

import json
import os
import struct
import time
from typing import Callable, Hashable

import numpy as np

from repro.core.joint import SigmaRule
from repro.gausstree.bounds import ParameterRect
from repro.gausstree.node import InnerNode, LeafNode, Node
from repro.storage.buffer import BufferManager
from repro.storage.filestore import FilePageStore, publish_generation
from repro.storage.layout import PageLayout
from repro.storage.serializer import (
    COLUMNAR_LEAF_KIND,
    INNER_KIND,
    LEAF_KIND,
    decode_columnar_leaf_page,
    decode_inner_page,
    decode_leaf_page,
    encode_columnar_leaf_page,
    encode_inner_page,
    encode_leaf_page,
)
from repro.storage.wal import (
    REC_CKPT_BASE,
    REC_KEYS,
    REC_META,
    REC_PAGE,
    WALGroup,
    WriteAheadLog,
)

__all__ = [
    "save_tree",
    "open_tree",
    "recover_index",
    "TreeWriter",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"GAUSTREE"
FORMAT_VERSION = 3

# magic, version, page_size, dims, degree, sigma_rule, height, root_page,
# page_count, n_objects, key_table_offset, key_table_bytes
_HEADER_V1 = struct.Struct("<8sHIIIBHIIQQQ")
# v2 appends the free-page count; the free-page ids (u32 each) follow the
# fixed struct inside the header page. v3 keeps the exact v2 header shape —
# only the version field and the leaf page kind differ.
_HEADER_V2 = struct.Struct("<8sHIIIBHIIQQQI")
# Byte range of (key_table_offset, key_table_bytes) inside both structs —
# recovery patches these after rewriting the key table.
_KT_FIELDS_OFFSET = 8 + 2 + 4 + 4 + 4 + 1 + 2 + 4 + 4 + 8
_KT_FIELDS = struct.Struct("<QQ")

_SIGMA_RULE_CODES = {SigmaRule.CONVOLUTION: 0, SigmaRule.PAPER: 1}
_SIGMA_RULE_FROM_CODE = {v: k for k, v in _SIGMA_RULE_CODES.items()}


def wal_path_for(path: str | os.PathLike) -> str:
    """The sidecar WAL file of an index (``<index>.wal``)."""
    return os.fspath(path) + ".wal"


try:
    import fcntl as _fcntl
except ImportError:  # non-POSIX: locking degrades to best-effort no-op
    _fcntl = None

#: How long a writable open keeps retrying the index lock before
#: concluding a real writer holds it (rides out a concurrent reader's
#: WAL replay). Tests shrink this to fail fast.
_LOCK_RETRY_SECONDS = 5.0

#: How many times a read-only open re-reads a header that a concurrent
#: checkpoint superseded before giving up.
_GENERATION_RETRIES = 20


class _IndexLock:
    """Advisory single-writer lock on ``<index>.lock``.

    A writable open holds it for the writer's lifetime; recovery takes
    it around its replay. This is what keeps a read-only open from
    truncating the WAL of a *live* writer in another process (the
    reader then reads the main file's last-checkpoint state instead).
    Checkpoints and recovery publish a *new* main-file generation via
    an atomic rename, so an already-open reader keeps its descriptor on
    the pre-checkpoint inode: reader snapshot isolation holds without
    the reader taking any lock. Without ``fcntl`` (non-POSIX) the lock
    degrades to a no-op.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        # realpath: opening/saving the same index through a symlink must
        # contend on the same lock file.
        self.path = os.path.realpath(os.fspath(path)) + ".lock"
        self._fd: int | None = None

    def acquire(self) -> bool:
        if _fcntl is None:
            return True
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            _fcntl.flock(self._fd, _fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


def readers_lock_path_for(path: str | os.PathLike) -> str:
    """The reader-presence sidecar of an index
    (``<index>.readers.lock``, resolved through symlinks)."""
    return os.path.realpath(os.fspath(path)) + ".readers.lock"


class _ReaderLock:
    """Shared advisory mark "a reader has this index open".

    Every read-only :func:`open_tree` takes a *shared* flock on the
    sidecar ``<index>.readers.lock`` for the tree's lifetime (a separate
    file from the exclusive writer lock, so writable-open semantics are
    untouched). ``repro reshard-gc`` probes old-generation shard files
    with a non-blocking *exclusive* flock on the same sidecar: while any
    pre-cutover reader is alive the probe fails and the file survives.
    Best-effort by design — without ``fcntl``, or if the sidecar cannot
    be created (read-only media), the reader just goes unregistered:
    POSIX keeps an open descriptor valid after unlink, so a GC'd file
    under a live unmarked reader degrades to deferred space
    reclamation, never to a read error. The last reader out removes the
    sidecar again (read-only opens must leave no trace on disk — a
    PR-1 invariant the persist tests pin).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = readers_lock_path_for(path)
        self._fd: int | None = None

    def acquire(self) -> bool:
        if _fcntl is None:
            return False
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return False
        try:
            _fcntl.flock(fd, _fcntl.LOCK_SH | _fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            try:
                # Sole holder? Then tidy up the sidecar. If another
                # reader still shares the lock the upgrade fails and
                # the file stays for them.
                _fcntl.flock(self._fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            except OSError:
                pass
            else:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
            _fcntl.flock(self._fd, _fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None


def index_files_in_use(path: str | os.PathLike) -> bool:
    """Whether any process holds the index open (writer or reader).

    Probes both lock sidecars with non-blocking exclusive flocks: the
    writer lock (``<index>.lock``, held exclusively by a writable open)
    and the reader-presence lock (``<index>.readers.lock``, held shared
    by every read-only open). Conservative without ``fcntl``: answers
    ``True``, so GC never deletes on a platform where it cannot probe.
    """
    if _fcntl is None:
        return True
    real = os.path.realpath(os.fspath(path))
    for lock_path in (real + ".lock", real + ".readers.lock"):
        if not os.path.exists(lock_path):
            continue
        try:
            fd = os.open(lock_path, os.O_RDWR)
        except OSError:
            return True
        try:
            _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            _fcntl.flock(fd, _fcntl.LOCK_UN)
        except OSError:
            return True
        finally:
            os.close(fd)
    return False


# -- key table ---------------------------------------------------------------


def _encode_key(key: Hashable) -> list:
    """Tagged JSON-safe encoding of an application key."""
    if key is None:
        return ["n"]
    if isinstance(key, bool):  # before int: bool is an int subclass
        return ["b", key]
    if isinstance(key, int):
        return ["i", key]
    if isinstance(key, float):
        return ["f", key]
    if isinstance(key, str):
        return ["s", key]
    if isinstance(key, tuple):
        return ["t", [_encode_key(k) for k in key]]
    raise TypeError(
        f"cannot persist key {key!r} of type {type(key).__name__}; "
        "supported: None, bool, int, float, str and tuples thereof"
    )


def _decode_key(entry: list) -> Hashable:
    tag = entry[0]
    if tag == "n":
        return None
    if tag in ("b", "i", "f", "s"):
        return entry[1]
    if tag == "t":
        return tuple(_decode_key(e) for e in entry[1])
    raise ValueError(f"unknown key tag {tag!r} in key table")


#: ``json.dumps`` with its default arguments, less its per-call argument
#: checks: the same bytes, and a fresh save probes every key through it.
_json_encode = json.JSONEncoder().encode


class _KeyTable:
    """Deduplicating key -> int64 slot assignment for the write path.

    The tagged JSON encoding of a key decides its slot. A writer's
    commit re-encodes whole leaves, so the table also remembers one key
    *object* per slot and answers it by identity without encoding it
    again: only keys new to the table pay the JSON probe.
    """

    def __init__(self) -> None:
        #: The key of each slot: the object the table remembers for it.
        self.keys: list[Hashable] = []
        # Keyed by the tagged JSON encoding, which distinguishes types
        # recursively — (1,), (True,) and (1.0,) hash equal as tuples but
        # encode differently, so each keeps its own slot.
        self._index: dict[str, int] = {}
        # id(self.keys[slot]) -> slot. Persistable keys are immutable,
        # so an object's encoding never changes, and self.keys holds the
        # object alive, so its id cannot name another object meanwhile.
        self._slot_of_id: dict[int, int] = {}
        # len(self.dump()) maintained incrementally: the per-op commit
        # needs the serialized table size for the header (not the bytes),
        # and re-encoding the whole table would make inserts O(n^2).
        self._dump_len = 2  # "[]"

    @classmethod
    def from_keys(cls, keys: list[Hashable]) -> "_KeyTable":
        table = cls()
        for key in keys:
            table.slot(key)
        return table

    def slot(self, key: Hashable) -> int:
        idx = self._slot_of_id.get(id(key))
        if idx is not None:
            return idx
        probe = _json_encode(_encode_key(key))
        idx = self._index.get(probe)
        if idx is None:
            idx = len(self.keys)
            self.keys.append(key)
            self._index[probe] = idx
            # json.dumps(list) joins item encodings with ", " — probe is
            # exactly the item encoding, so the list length is additive.
            self._dump_len += len(probe) if idx == 0 else 2 + len(probe)
        else:
            # An equal key as a new object takes over the slot's memo
            # entry (it encodes to the same bytes), so re-inserting one
            # key as fresh objects never grows the table.
            del self._slot_of_id[id(self.keys[idx])]
            self.keys[idx] = key
        self._slot_of_id[id(key)] = idx
        return idx

    @property
    def encoded_length(self) -> int:
        """``len(self.dump())`` without serializing (ASCII-safe keys)."""
        return self._dump_len

    def dump(self) -> bytes:
        data = json.dumps([_encode_key(k) for k in self.keys]).encode("utf-8")
        assert len(data) == self._dump_len, "encoded-length bookkeeping bug"
        return data


# -- header ------------------------------------------------------------------


def _build_header_page(
    *,
    page_size: int,
    dims: int,
    degree: int,
    sigma_rule: SigmaRule,
    height: int,
    root_page: int,
    page_count: int,
    n_objects: int,
    key_table_bytes: int,
    free_pages: tuple[int, ...] = (),
    version: int = FORMAT_VERSION,
) -> bytes:
    """The complete page-0 image: fixed v2/v3 header plus the free-page list.

    ``version`` is the format stamped into the file — a writable v2 file
    keeps committing v2 headers so its format is preserved across
    sessions. The free list is capped by the header page's spare bytes;
    if node deletes ever free more pages than fit, the oldest ids are
    dropped (those pages leak until the next compacting ``save``).
    """
    capacity = (page_size - _HEADER_V2.size) // 4
    free = free_pages[-capacity:] if len(free_pages) > capacity else free_pages
    fixed = _HEADER_V2.pack(
        MAGIC,
        version,
        page_size,
        dims,
        degree,
        _SIGMA_RULE_CODES[sigma_rule],
        height,
        root_page,
        page_count,
        n_objects,
        (page_count + 1) * page_size,
        key_table_bytes,
        len(free),
    )
    body = fixed + struct.pack(f"<{len(free)}I", *free)
    return body + b"\x00" * (page_size - len(body))


def _parse_fixed_header(raw: bytes) -> dict:
    """Decode the version-independent fixed header fields from raw bytes.

    Shared by :func:`read_header` (reading the file) and
    :func:`recover_index` (reading a WAL ``META`` image), so the field
    layout is interpreted in exactly one place.
    """
    (
        magic,
        version,
        page_size,
        dims,
        degree,
        rule_code,
        height,
        root_page,
        page_count,
        n_objects,
        kt_offset,
        kt_bytes,
    ) = _HEADER_V1.unpack(raw[: _HEADER_V1.size])
    return {
        "magic": magic,
        "version": version,
        "page_size": page_size,
        "dims": dims,
        "degree": degree,
        "rule_code": rule_code,
        "height": height,
        "root_page": root_page,
        "page_count": page_count,
        "n_objects": n_objects,
        "key_table_offset": kt_offset,
        "key_table_bytes": kt_bytes,
    }


def read_header(path: str | os.PathLike) -> dict:
    """Parse and validate the fixed file header; returns its fields.

    Understands format v1 (PR 1, no free list), v2 (interleaved leaves)
    and v3 (columnar leaves); v2 and v3 share the header shape.
    """
    with open(path, "rb") as f:
        raw = f.read(_HEADER_V2.size)
        if len(raw) < _HEADER_V1.size:
            raise ValueError(
                f"{os.fspath(path)!r} is not a Gauss-tree index file"
            )
        fixed = _parse_fixed_header(raw)
        magic = fixed["magic"]
        version = fixed["version"]
        page_size = fixed["page_size"]
        dims = fixed["dims"]
        degree = fixed["degree"]
        rule_code = fixed["rule_code"]
        height = fixed["height"]
        root_page = fixed["root_page"]
        page_count = fixed["page_count"]
        n_objects = fixed["n_objects"]
        kt_offset = fixed["key_table_offset"]
        kt_bytes = fixed["key_table_bytes"]
        if magic != MAGIC:
            raise ValueError(
                f"{os.fspath(path)!r} is not a Gauss-tree index file"
            )
        if version not in (1, 2, 3):
            raise ValueError(
                f"index format version {version} not supported "
                f"(this build reads versions 1-{FORMAT_VERSION})"
            )
        free_pages: tuple[int, ...] = ()
        if version >= 2:
            if len(raw) < _HEADER_V2.size:
                raise ValueError(
                    f"{os.fspath(path)!r} has a truncated index header"
                )
            (free_count,) = struct.unpack_from("<I", raw, _HEADER_V2.size - 4)
            capacity = (page_size - _HEADER_V2.size) // 4 if page_size else 0
            if free_count > max(capacity, 0):
                raise ValueError(
                    f"{os.fspath(path)!r} has a corrupt index header "
                    f"(free_count={free_count} exceeds capacity {capacity})"
                )
            free_raw = f.read(4 * free_count)
            if len(free_raw) < 4 * free_count:
                raise ValueError(
                    f"{os.fspath(path)!r} has a truncated free-page list"
                )
            free_pages = struct.unpack(f"<{free_count}I", free_raw)
    if rule_code not in _SIGMA_RULE_FROM_CODE:
        raise ValueError(f"unknown sigma rule code {rule_code}")
    # Sanity-check the geometry against the actual file so a corrupt or
    # truncated header fails with a clear error instead of an absurd
    # allocation (page_count is a u32) or an opaque KeyError later.
    file_size = os.path.getsize(path)
    if (
        page_size < 256
        or page_count < 1
        or not 1 <= root_page <= page_count
        or kt_offset != (page_count + 1) * page_size
        or kt_offset + kt_bytes > file_size
        or any(not 1 <= p <= page_count for p in free_pages)
        or len(set(free_pages)) != len(free_pages)
        or root_page in free_pages
    ):
        raise ValueError(
            f"{os.fspath(path)!r} has a corrupt index header "
            f"(page_size={page_size}, page_count={page_count}, "
            f"root_page={root_page}, key_table={kt_offset}+{kt_bytes}, "
            f"free_pages={len(free_pages)}, file_size={file_size})"
        )
    return {
        "version": version,
        "page_size": page_size,
        "dims": dims,
        "degree": degree,
        "sigma_rule": _SIGMA_RULE_FROM_CODE[rule_code],
        "height": height,
        "root_page": root_page,
        "page_count": page_count,
        "n_objects": n_objects,
        "key_table_offset": kt_offset,
        "key_table_bytes": kt_bytes,
        "free_pages": free_pages,
    }


# -- saving ------------------------------------------------------------------


class SaveResult:
    """What :func:`save_tree` wrote — lets a writable tree rebind in place."""

    __slots__ = ("page_of", "key_table", "page_count", "height", "version")

    def __init__(
        self,
        page_of: dict[int, int],
        key_table: _KeyTable,
        page_count: int,
        height: int,
        version: int,
    ) -> None:
        self.page_of = page_of  # id(node) -> saved page id
        self.key_table = key_table
        self.page_count = page_count
        self.height = height
        self.version = version


def save_tree(
    tree,
    path: str | os.PathLike,
    *,
    version: int = FORMAT_VERSION,
    _writer_lock: _IndexLock | None = None,
) -> SaveResult:
    """Write ``tree`` to ``path`` as a single self-describing index file.

    ``version`` picks the write format: 3 (default) encodes leaves as
    columnar pages, 2 keeps the interleaved per-entry encoding for
    compatibility with older readers. Both round-trip through
    :func:`open_tree` with identical query answers and page accounting.

    Refuses to replace an index another live writer holds open: the
    save would silently truncate that writer's WAL and the writer's
    next checkpoint would clobber the fresh file. ``_writer_lock`` is
    the caller's own already-held lock (``GaussTree.save`` passes it),
    which legitimizes the in-place save of a writable tree.
    """
    if version not in (2, 3):
        raise ValueError(
            f"cannot write format version {version}; this build writes "
            "versions 2 (interleaved leaves) and 3 (columnar leaves)"
        )
    lock = _IndexLock(path)
    owns_lock = lock.acquire()
    if not owns_lock and not (
        _writer_lock is not None and _writer_lock.path == lock.path
    ):
        raise RuntimeError(
            f"cannot save over {os.fspath(path)!r}: another process holds "
            "it open writable (close that writer first)"
        )
    try:
        return _save_tree_locked(tree, path, version)
    finally:
        if owns_lock:
            lock.release()


def _encode_leaf(
    layout: PageLayout, pid: int, leaf: LeafNode, key_table: _KeyTable,
    version: int,
) -> bytes:
    """Encode one leaf in the requested format's page kind.

    The v3 path encodes the leaf's column arrays directly; the v2 path
    keeps the interleaved per-entry codec byte-for-byte.
    """
    if version >= 3:
        if leaf.count:
            mu, sigma = leaf.arrays()
        else:  # empty tree: the root leaf encodes as a zero-entry page
            mu = np.zeros((0, layout.dims), dtype=np.float64)
            sigma = np.zeros((0, layout.dims), dtype=np.float64)
        return encode_columnar_leaf_page(
            layout,
            pid,
            mu,
            sigma,
            [key_table.slot(k) for k in leaf.keys()],
        )
    return encode_leaf_page(
        layout, pid, leaf.entries, [key_table.slot(k) for k in leaf.keys()]
    )


def _save_tree_locked(
    tree, path: str | os.PathLike, version: int
) -> SaveResult:
    layout: PageLayout = tree.layout
    if tree.leaf_max > layout.leaf_capacity:
        raise ValueError(
            f"degree M={tree.degree} allows {tree.leaf_max} leaf entries "
            f"but the {layout.page_size}-byte page encodes at most "
            f"{layout.leaf_capacity}; use a matching layout"
        )
    if tree.inner_max > layout.inner_capacity:
        raise ValueError(
            f"degree M={tree.degree} allows {tree.inner_max} children "
            f"but the {layout.page_size}-byte page encodes at most "
            f"{layout.inner_capacity}; use a matching layout"
        )
    # Dense pre-order page ids; the stored ids are independent of the ids
    # the in-memory PageStore allocated during construction.
    nodes: list[tuple[Node, int]] = []  # (node, level), leaves at level 0
    height = tree.height
    stack: list[tuple[Node, int]] = [(tree.root, height - 1)]
    while stack:
        node, level = stack.pop()
        nodes.append((node, level))
        if not node.is_leaf:
            stack.extend((c, level - 1) for c in node.children)
    page_of = {id(node): i + 1 for i, (node, _) in enumerate(nodes)}

    key_table = _KeyTable()
    page_size = layout.page_size
    # Write to a sibling temp file, then rename over the target: saving a
    # disk-opened tree back onto its own file must keep reading lazy leaf
    # pages from the original bytes while writing (truncating the target
    # first would destroy the pages the stubs still need), and a crashed
    # save never leaves a half-written index behind.
    directory = os.path.dirname(os.path.abspath(os.fspath(path))) or "."
    tmp_path = os.path.join(
        directory, f".{os.path.basename(os.fspath(path))}.tmp.{os.getpid()}"
    )
    try:
        with open(tmp_path, "w+b") as f:
            f.write(b"\x00" * page_size)  # header slot, rewritten below
            for (node, level) in nodes:
                pid = page_of[id(node)]
                if node.is_leaf:
                    leaf: LeafNode = node  # type: ignore[assignment]
                    page = _encode_leaf(layout, pid, leaf, key_table, version)
                else:
                    inner: InnerNode = node  # type: ignore[assignment]
                    page = encode_inner_page(
                        layout,
                        pid,
                        level,
                        [c.rect.as_flat_bounds() for c in inner.children],
                        [page_of[id(c)] for c in inner.children],
                        [c.count for c in inner.children],
                    )
                f.seek(pid * page_size)
                f.write(page)
            table = key_table.dump()
            key_table_offset = (len(nodes) + 1) * page_size
            f.seek(key_table_offset)
            f.write(table)
            header = _build_header_page(
                page_size=page_size,
                dims=layout.dims,
                degree=tree.degree,
                sigma_rule=tree.sigma_rule,
                height=height,
                root_page=page_of[id(tree.root)],
                page_count=len(nodes),
                n_objects=len(tree),
                key_table_bytes=len(table),
                version=version,
            )
            f.seek(0)
            f.write(header)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    # A leftover sidecar WAL from an earlier writable session describes
    # the *replaced* file generation; replayed over the fresh save it
    # would corrupt the index. Clear it in place (truncate to the magic,
    # not unlink: a writer flushing right before an in-place save still
    # holds the file open at offset 8, which stays consistent).
    wal_path = wal_path_for(path)
    if os.path.exists(wal_path):
        wal = WriteAheadLog(wal_path)
        try:
            wal.reset()
        finally:
            wal.close()
    return SaveResult(page_of, key_table, len(nodes), height, version)


# -- recovery ----------------------------------------------------------------


def recover_index(
    path: str | os.PathLike,
    wal_path: str | os.PathLike | None = None,
    *,
    file_factory: Callable = open,
    _lock: _IndexLock | None = None,
) -> bool:
    """Redo-replay the committed WAL tail into the main index file.

    Idempotent: a crash *during* recovery leaves the WAL in place, so
    the next open simply replays again. Returns whether anything was
    applied. The procedure:

    1. scan the WAL, keeping the longest checksum-valid prefix of
       committed transactions (a torn tail is discarded — that is the
       not-yet-durable suffix of the workload);
    2. fold the transactions into the latest image per page, the key
       appends (re-based on a ``CKPT_BASE`` snapshot if a checkpoint was
       interrupted), and the final header image;
    3. build a *new generation* of the main file beside it (old bytes,
       folded pages, key table, patched header), fsync it, and publish
       it with an atomic rename, then truncate the WAL. Already-open
       readers of the previous generation keep their inode and are
       never touched — replica apply (``storage/ship.py``) relies on
       this to refresh a replica under live readers.
    """
    wal_path = wal_path_for(path) if wal_path is None else wal_path
    # Cheap read-only pre-checks before any filesystem write (creating
    # the lock file): a missing or committed-record-free WAL means there
    # is nothing to replay — the common read-only open (and any v1 file,
    # which never has a WAL) must work from read-only media unchanged.
    # has_committed streams record headers without slurping the file; a
    # rare false positive just means taking the lock and scanning fully.
    if not os.path.exists(wal_path):
        return False
    if not WriteAheadLog.has_committed(wal_path):
        return False
    if _lock is None:
        # A live writer in another process owns the WAL: replaying (and
        # truncating!) it under that writer would make its later fsynced
        # commits unrecoverable. Skip — the caller reads the consistent
        # last-checkpoint state from the main file instead.
        lock = _IndexLock(path)
        if not lock.acquire():
            return False
        try:
            return recover_index(
                path, wal_path, file_factory=file_factory, _lock=lock
            )
        finally:
            lock.release()
    # Re-scan under the lock, streaming: fold to latest-image-per-page
    # instead of materializing the whole log (a killed bulk insert can
    # leave a WAL of hundreds of MB; the fold is bounded by the number
    # of distinct pages).
    pages: dict[int, bytes] = {}
    base_entries: list | None = None
    appended: list = []
    header_image: bytes | None = None
    committed_end = None
    for txn, end in WriteAheadLog.iter_committed(wal_path):
        committed_end = end
        for rtype, payload in txn:
            if rtype == REC_PAGE:
                (pid,) = struct.unpack_from("<I", payload, 0)
                pages[pid] = payload[4:]
            elif rtype == REC_KEYS:
                appended.extend(json.loads(payload.decode("utf-8")))
            elif rtype == REC_CKPT_BASE:
                # Snapshot of the whole table at checkpoint start; it
                # subsumes every append logged before it.
                base_entries = json.loads(payload.decode("utf-8"))
                appended = []
            elif rtype == REC_META:
                header_image = payload
    if committed_end is None or header_image is None:
        return False  # no committed state transition to apply
    meta_fields = _parse_fixed_header(header_image)
    page_size = meta_fields["page_size"]
    page_count = meta_fields["page_count"]
    if base_entries is None:
        # No checkpoint was in flight, so the main file's key table is
        # exactly the last-checkpoint state and its header is intact.
        durable = read_header(path)
        with open(path, "rb") as f:
            f.seek(durable["key_table_offset"])
            raw = f.read(durable["key_table_bytes"])
        base_entries = json.loads(raw.decode("utf-8"))
        # Seal the *folded* table (base plus the WAL's appends) into the
        # WAL before the main file is touched: recovery itself may crash
        # mid-replay, clobbering the tail the lines above just read, and
        # the retry must then be as self-contained as an interrupted
        # checkpoint. The unsealed tail past the last COMMIT is
        # discarded first so this transaction is actually reachable by
        # the next scan.
        wal = WriteAheadLog(wal_path, file_factory=file_factory)
        try:
            wal.truncate_to(committed_end)
            wal.append(
                REC_CKPT_BASE,
                json.dumps(base_entries + appended).encode("utf-8"),
            )
            wal.append(REC_META, header_image)
            wal.commit()
        finally:
            wal.close()
    table = json.dumps(base_entries + appended).encode("utf-8")
    kt_offset = (page_count + 1) * page_size
    patched = bytearray(header_image)
    patched[_KT_FIELDS_OFFSET : _KT_FIELDS_OFFSET + _KT_FIELDS.size] = (
        _KT_FIELDS.pack(kt_offset, len(table))
    )
    # Apply into a fresh generation published by atomic rename:
    # already-open readers of the old file keep their inode untouched
    # (replica apply under live readers depends on this), and a crash
    # mid-apply leaves the old generation plus the sealed WAL intact.
    with open(path, "rb") as base:
        publish_generation(
            path,
            base,
            page_size=page_size,
            page_count=page_count,
            images=pages,
            table=table,
            header_page=bytes(patched),
            file_factory=file_factory,
        )
    # The main file now holds everything; retire the WAL.
    wal = WriteAheadLog(wal_path, file_factory=file_factory)
    try:
        wal.reset()
    finally:
        wal.close()
    return True


# -- the write path ----------------------------------------------------------


class TreeWriter:
    """Per-operation WAL commits and checkpoints for a writable tree.

    Owned by a :class:`~repro.gausstree.tree.GaussTree` opened with
    ``writable=True``; the tree calls :meth:`commit` with the set of
    nodes an ``insert``/``delete`` dirtied, and :meth:`checkpoint` from
    ``flush``/``close``.
    """

    def __init__(
        self,
        tree,
        store: FilePageStore,
        wal: WriteAheadLog,
        keys: list[Hashable],
        height: int,
        lock: _IndexLock | None = None,
        auto_checkpoint_bytes: int | None = None,
        format_version: int = FORMAT_VERSION,
    ) -> None:
        if auto_checkpoint_bytes is not None and auto_checkpoint_bytes <= 0:
            raise ValueError(
                f"auto_checkpoint_bytes must be positive, got "
                f"{auto_checkpoint_bytes}"
            )
        self.tree = tree
        self.store = store
        self.wal = wal
        self._lock = lock
        self.auto_checkpoint_bytes = auto_checkpoint_bytes
        # The file's format is sticky: a v2 file opened writable keeps
        # committing v2 leaf pages and v2 headers.
        self.format_version = format_version
        self.key_table = _KeyTable.from_keys(keys)
        self._logged_keys = len(self.key_table.keys)
        self.height = height
        # Offset of a torn transaction whose rollback also failed (e.g.
        # ENOSPC on both): appending after those bytes would make every
        # later fsynced commit unreachable to the recovery scan, so the
        # tail must be re-truncated before the WAL accepts new records.
        self._pending_rollback: int | None = None

    # -- structure helpers ---------------------------------------------------

    def _attached(self, node: Node) -> bool:
        while node.parent is not None:
            node = node.parent
        return node is self.tree.root

    @staticmethod
    def _depth(node: Node) -> int:
        depth = 0
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def _encode(self, node: Node, level: int) -> bytes:
        layout = self.tree.layout
        if node.is_leaf:
            leaf: LeafNode = node  # type: ignore[assignment]
            return _encode_leaf(
                layout, leaf.page_id, leaf, self.key_table,
                self.format_version,
            )
        inner: InnerNode = node  # type: ignore[assignment]
        return encode_inner_page(
            layout,
            inner.page_id,
            level,
            [c.rect.as_flat_bounds() for c in inner.children],
            [c.page_id for c in inner.children],
            [c.count for c in inner.children],
        )

    def header_page_image(self) -> bytes:
        tree = self.tree
        return _build_header_page(
            page_size=tree.layout.page_size,
            dims=tree.layout.dims,
            degree=tree.degree,
            sigma_rule=tree.sigma_rule,
            height=self.height,
            root_page=tree.root.page_id,
            page_count=self.store.page_count,
            n_objects=len(tree),
            key_table_bytes=self.key_table.encoded_length,
            free_pages=self.store.free_pages,
            version=self.format_version,
        )

    # -- commit --------------------------------------------------------------

    def commit(self, dirty: set[Node]) -> None:
        """Make one completed tree operation — or a whole batch of them
        sharing one dirty set — durable: a single WAL transaction of
        page images + appended keys + header meta (built through
        :class:`~repro.storage.wal.WALGroup`, so a batch pays one
        ``COMMIT`` and one fsync and each dirtied page is logged once),
        then install the images into the store, which keeps them until
        the next checkpoint publishes them.

        Nodes are encoded in page-id order, so key-slot assignment and
        the order of the PAGE records — and with them the WAL, the
        checkpointed file and every replica — are the same bytes for the
        same operations, whatever the nodes' memory addresses."""
        live = sorted(
            (n for n in dirty if self._attached(n)), key=lambda n: n.page_id
        )
        live_leaf = next((n for n in live if n.is_leaf), None)
        if live_leaf is not None:
            self.height = self._depth(live_leaf) + 1
        else:  # pure-structural op; rare, costs a leftmost-path walk
            self.height = self.tree._spine_height()
        images: list[tuple[int, bytes]] = []
        for node in live:
            level = 0 if node.is_leaf else self.height - 1 - self._depth(node)
            images.append((node.page_id, self._encode(node, level)))
        new_keys = self.key_table.keys[self._logged_keys :]
        group = WALGroup()
        for pid, image in images:
            group.add_page(pid, image)
        if new_keys:
            group.add_keys([_encode_key(k) for k in new_keys])
        group.set_meta(self.header_page_image())
        self._ensure_clean_tail()
        start = self.wal.tell()
        try:
            group.commit_to(self.wal)
        except BaseException:
            # A torn transaction must not be sealed by the *next* commit:
            # roll the WAL back to the transaction start. If the rollback
            # itself fails (disk full, injected crash), remember the
            # offset — _ensure_clean_tail retries before any later append
            # so a fsynced commit can never land behind torn bytes where
            # the recovery scan would discard it.
            try:
                self.wal.truncate_to(start)
            except Exception:
                self._pending_rollback = start
            raise
        self._logged_keys = len(self.key_table.keys)
        for pid, image in images:
            self.store.write(pid, image)

    def _ensure_clean_tail(self) -> None:
        """Retry a previously failed transaction rollback; raises (and
        keeps the WAL closed to new records) while the tail stays torn."""
        if self._pending_rollback is not None:
            self.wal.truncate_to(self._pending_rollback)
            self._pending_rollback = None

    def maybe_auto_checkpoint(self) -> None:
        """WAL-size-triggered checkpoint: flush once the log reaches the
        configured bound.

        Called by the tree after each committed mutation (with the dirty
        marks already cleared, so nothing is double-logged). A crash
        during the triggered checkpoint is no different from a crash
        during an explicit ``flush()`` — the CKPT_BASE protocol makes
        recovery self-contained either way, which the crash harness
        exercises.
        """
        if (
            self.auto_checkpoint_bytes is not None
            and self.wal.tell() >= self.auto_checkpoint_bytes
        ):
            self.checkpoint()

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(self) -> None:
        """Publish committed state as a new main-file generation; then
        empty the WAL.

        fsync ordering: WAL (with a ``CKPT_BASE`` key-table snapshot
        that makes replay independent of the main file) strictly before
        the new generation's bytes, those before the atomic rename that
        publishes them, the rename before the WAL truncate. The rename
        (via :meth:`FilePageStore.publish_checkpoint`) is what seals
        *reader snapshot isolation*: a read-only session that opened the
        index before this checkpoint keeps its file descriptor on the
        pre-checkpoint inode and never observes pages changing under it.
        A crash anywhere before the rename leaves the old generation
        plus a replayable WAL; after it, replay is idempotent.
        """
        store, wal = self.store, self.wal
        # Marks left behind by a commit that failed mid-WAL-append: the
        # mutation *is* in the live tree this checkpoint's header will
        # describe, so its pages must be committed first — otherwise the
        # header (n_objects, root) and the page images disagree and the
        # file no longer opens. If the commit fails again, the
        # checkpoint aborts here with the main file untouched.
        pending = self.tree._dirty_nodes
        if pending:
            self.commit(pending)
            self.tree._dirty_nodes = set()
        images = store.dirty_images()
        if not images and wal.is_empty:
            return
        self._ensure_clean_tail()
        table = self.key_table.dump()
        header_page = self.header_page_image()
        wal.append(REC_CKPT_BASE, table)
        wal.append(REC_META, header_page)
        wal.commit()
        if not wal.fsync:
            wal.sync()  # checkpoint ordering is non-negotiable
        store.publish_checkpoint(images, table, header_page)
        wal.reset()
        store.mark_all_clean()

    def rebind_after_save(self, saved: SaveResult) -> None:
        """Adopt the page ids of a compacting in-place ``save``.

        ``save_tree`` materialized every node, so the whole tree can be
        re-pointed at the freshly written (dense) page ids and the store
        reset onto the new file generation.
        """
        stack: list[Node] = [self.tree.root]
        while stack:
            node = stack.pop()
            node.page_id = saved.page_of[id(node)]
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[attr-defined]
        self.store.rebind(saved.page_count)
        self.key_table = saved.key_table
        self._logged_keys = len(saved.key_table.keys)
        self.height = saved.height
        self.format_version = saved.version

    def close(self, checkpoint: bool = True) -> None:
        try:
            if checkpoint:
                self.checkpoint()
        finally:
            self.wal.close()
            if self._lock is not None:
                self._lock.release()


# -- opening -----------------------------------------------------------------


class _NodeLoader:
    """Materializes stub nodes from page bytes on first payload access."""

    def __init__(
        self, store: FilePageStore, layout: PageLayout, keys: list[Hashable]
    ) -> None:
        self.store = store
        self.layout = layout
        self.keys = keys

    def load_leaf(self, leaf: LeafNode) -> None:
        data = self.store.fetch_page(leaf.page_id)
        if data[4] == COLUMNAR_LEAF_KIND:  # header: page_id u32, kind u8
            _, mu, sigma, key_slots = decode_columnar_leaf_page(
                self.layout, data
            )
            leaf.set_columns(
                mu, sigma, [self.keys[slot] for slot in key_slots]
            )
            return
        _, vectors, key_slots = decode_leaf_page(self.layout, data)
        leaf.replace_entries(
            [v.with_key(self.keys[slot]) for v, slot in zip(vectors, key_slots)]
        )

    def load_inner(self, inner: InnerNode) -> None:
        data = self.store.fetch_page(inner.page_id)
        header, bounds, children, cards = decode_inner_page(self.layout, data)
        inner.replace_children(
            [
                self.stub(pid, ParameterRect.from_flat_bounds(flat), card,
                          header.level - 1)
                for flat, pid, card in zip(bounds, children, cards)
            ]
        )

    def stub(
        self, page_id: int, rect: ParameterRect, count: int, level: int
    ) -> Node:
        node: Node
        if level == 0:
            node = LeafNode(page_id)
            node.set_loader(self.load_leaf, count)
        else:
            node = InnerNode(page_id)
            node.set_loader(self.load_inner, count)
        node.rect = rect
        return node


def open_tree(
    path: str | os.PathLike,
    buffer: BufferManager | None = None,
    *,
    writable: bool = False,
    fsync: bool = True,
    auto_checkpoint_bytes: int | None = None,
    file_factory: Callable = open,
):
    """Open a saved index; nodes materialize lazily.

    With ``writable=True`` (formats v2/v3) the tree accepts
    ``insert``/``delete``, each committed through the write-ahead log;
    call ``flush()``/``close()`` to checkpoint. A WAL left behind by a
    crashed writer is replayed before anything is read, for read-only
    opens too — the committed tail supersedes the main file's bytes.
    ``fsync=False`` keeps the recovery guarantees but lets the newest
    commits ride in the OS cache (faster, bounded loss on power cut).
    """
    from repro.gausstree.tree import GaussTree

    if auto_checkpoint_bytes is not None and not writable:
        raise ValueError(
            "auto_checkpoint_bytes only applies to writable opens "
            "(a read-only tree never writes the WAL)"
        )
    lock: _IndexLock | None = None
    if writable:
        lock = _IndexLock(path)
        # Retry briefly: the holder may be a *reader* replaying a
        # crashed writer's WAL (bounded, seconds at most), which is not
        # the genuine writer conflict the error below describes.
        deadline = time.monotonic() + _LOCK_RETRY_SECONDS
        while not lock.acquire():
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"{os.fspath(path)!r} is already open writable in "
                    "another process (single-writer index)"
                )
            time.sleep(0.05)
    try:
        return _open_tree_locked(
            path,
            buffer,
            writable=writable,
            fsync=fsync,
            auto_checkpoint_bytes=auto_checkpoint_bytes,
            file_factory=file_factory,
            lock=lock,
        )
    except BaseException:
        # On any failure the writer lock must not outlive this call —
        # a leaked in-process flock would block every later open.
        if lock is not None:
            lock.release()
        raise


def _open_tree_locked(
    path,
    buffer,
    *,
    writable: bool,
    fsync: bool,
    auto_checkpoint_bytes: int | None,
    file_factory: Callable,
    lock,
):
    from repro.gausstree.tree import GaussTree

    recover_index(path, file_factory=file_factory, _lock=lock)
    # A read-only open holds no lock, so a live writer's checkpoint may
    # publish a new file generation (atomic rename) between the header
    # read and the store's open. Pages and key table must come from the
    # generation the header describes: retry until the path named the
    # same file before the header read and after the open.
    for _ in range(_GENERATION_RETRIES):
        generation = os.stat(path).st_ino
        meta = read_header(path)
        if writable and meta["version"] < 2:
            raise ValueError(
                f"{os.fspath(path)!r} is a format v1 index, which opens "
                "read-only; open it and save() to rewrite it in a current "
                "format first"
            )
        store = FilePageStore(
            path,
            meta["page_size"],
            allocated_pages=meta["page_count"],
            free_pages=meta["free_pages"],
            writable=writable,
            buffer=buffer,
            file_factory=file_factory,
        )
        if writable or os.stat(path).st_ino == generation:
            break
        store.close()
    else:
        raise RuntimeError(
            f"{os.fspath(path)!r} was checkpointed during every open attempt"
        )
    table = json.loads(
        store.read_tail(
            meta["key_table_offset"], meta["key_table_bytes"]
        ).decode("utf-8")
    )
    keys = [_decode_key(e) for e in table]
    layout = PageLayout(dims=meta["dims"], page_size=meta["page_size"])
    tree = GaussTree(
        dims=meta["dims"],
        degree=meta["degree"],
        layout=layout,
        page_store=store,
        sigma_rule=meta["sigma_rule"],
    )
    store.free(tree.root.page_id)  # discard the constructor's placeholder

    loader = _NodeLoader(store, layout, keys)
    root_bytes = store.fetch_page(meta["root_page"])
    kind = root_bytes[4]  # header: page_id u32, then kind u8
    if kind in (LEAF_KIND, COLUMNAR_LEAF_KIND):
        root: Node = LeafNode(meta["root_page"])
        loader.load_leaf(root)  # type: ignore[arg-type]
    elif kind == INNER_KIND:
        root = InnerNode(meta["root_page"])
        loader.load_inner(root)  # type: ignore[arg-type]
    else:
        raise ValueError(f"root page has unknown kind {kind}")
    tree.root = root
    if len(tree) != meta["n_objects"]:
        raise ValueError(
            f"index corrupt: header says {meta['n_objects']} objects, "
            f"root subtree counts {len(tree)}"
        )
    if writable:
        # A fresh writer always starts from an empty WAL: recovery above
        # either replayed-and-truncated it or left only an unsealed tail.
        wal = WriteAheadLog(
            wal_path_for(path), fsync=fsync, file_factory=file_factory
        )
        wal.reset()
        tree.attach_writer(
            TreeWriter(
                tree,
                store,
                wal,
                keys,
                meta["height"],
                lock=lock,
                auto_checkpoint_bytes=auto_checkpoint_bytes,
                format_version=meta["version"],
            )
        )
    else:
        tree.read_only = True
        tree._header_height = meta["height"]
        # Register reader presence for `repro reshard-gc` (best-effort;
        # released by tree.close()).
        reader_lock = _ReaderLock(path)
        if reader_lock.acquire():
            tree._reader_lock = reader_lock
    return tree
