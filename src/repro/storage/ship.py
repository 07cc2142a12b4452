"""WAL shipping: stream a primary index's committed txns to replicas.

The group-commit WAL (:mod:`repro.storage.wal`) is a self-describing,
checksummed redo stream, so replica catch-up *is* crash recovery run on
someone else's log: a shipper appends the primary WAL's newly committed
bytes after the replica's own WAL magic and calls
:func:`repro.gausstree.persist.recover_index` on the replica, which
folds and publishes them exactly as it would after a crash. Two
consequences fall out for free:

* **Durable-prefix invariant.** Only bytes up to the primary's last
  ``COMMIT`` are ever shipped (located by the streaming
  :meth:`~repro.storage.wal.WriteAheadLog.committed_length`, never a
  torn tail), and replica apply is the recovery path — so a replica is
  always equal to some committed prefix of the primary's history, never
  a state the primary could not itself recover to.
* **Live readers are safe.** Recovery and full resyncs publish a new
  replica generation by atomic rename
  (:func:`~repro.storage.filestore.publish_generation`); a server
  session already reading the replica keeps its pre-apply snapshot and
  the next open sees the shipped state. A reader recovering the replica
  resets its WAL under the replica's index lock, so a shipper holds that
  lock from its first write to the replica until the apply publishes.

A :class:`WALShipper` tracks one shipped byte offset per replica.
When the primary checkpoints, its WAL resets and the shipped offset
suddenly exceeds the log — the shipper detects this and falls back to
a **full resync** (:func:`create_replica`: publish a copy of the main
file, ship the committed WAL prefix, then recover). The owner of both
sides (the sharded backend) avoids that copy on its own checkpoints by
shipping *first* and then calling :meth:`WALShipper.note_reset`, which
marks the replicas logically current with the freshly checkpointed
primary.

Layering: this module sits in ``storage`` next to ``wal``/``fault`` but
replica apply needs the index-level replay, so
:mod:`repro.gausstree.persist` is imported lazily inside functions.
"""

from __future__ import annotations

import os

from repro.storage.filestore import publish_generation
from repro.storage.wal import WAL_MAGIC, WriteAheadLog

__all__ = ["replica_path", "create_replica", "WALShipper"]


def replica_path(primary: str | os.PathLike, k: int) -> str:
    """Conventional path of replica ``k`` (1-based): ``<primary>.r<k>``."""
    return f"{os.fspath(primary)}.r{k}"


def create_replica(
    primary_path: str | os.PathLike, replica: str | os.PathLike
) -> str:
    """Full resync: clone a primary index file into a replica.

    Publishes a copy of the primary's main file as a new replica
    generation, copies the committed prefix of the primary's WAL (a torn
    tail is never shipped), then replays the WAL into the replica via
    the ordinary recovery path so the replica's main file is
    self-contained and its WAL empty. A reader already holding the
    replica open keeps its snapshot. Returns the replica path. The
    caller must ensure the primary is quiescent or its WAL append-only
    for the duration (the sharded backend ships between batches, never
    mid-commit).
    """
    from repro.gausstree.persist import (
        _IndexLock,
        read_header,
        recover_index,
        wal_path_for,
    )

    primary_path = os.fspath(primary_path)
    replica = os.fspath(replica)
    meta = read_header(primary_path)
    with _IndexLock(replica) as lock:
        with open(primary_path, "rb") as base:
            header_page = base.read(meta["page_size"])
            base.seek(meta["key_table_offset"])
            table = base.read(meta["key_table_bytes"])
            publish_generation(
                replica,
                base,
                page_size=meta["page_size"],
                page_count=meta["page_count"],
                images={},
                table=table,
                header_page=header_page,
            )
        src_wal = wal_path_for(primary_path)
        end = WriteAheadLog.committed_length(src_wal)
        with open(wal_path_for(replica), "wb") as out:
            if end > len(WAL_MAGIC):
                with open(src_wal, "rb") as src:
                    remaining = end
                    while remaining > 0:
                        chunk = src.read(min(1 << 20, remaining))
                        if not chunk:
                            break
                        out.write(chunk)
                        remaining -= len(chunk)
            else:
                out.write(WAL_MAGIC)
            out.flush()
            os.fsync(out.fileno())
        recover_index(replica, _lock=lock)
    return replica


class WALShipper:
    """Incremental shipper from one primary index to its replicas.

    Tracks, per replica, how many primary WAL bytes have been applied;
    :meth:`ship` forwards only the newly committed suffix. Replicas that
    cannot be caught up incrementally (primary WAL reset under us, a
    failed previous apply, a missing replica file) are rebuilt with
    :func:`create_replica`.
    """

    def __init__(
        self,
        primary_path: str | os.PathLike,
        replica_paths: list[str],
        *,
        resync: bool = True,
    ) -> None:
        """Bind to a primary and its replica paths.

        With ``resync`` (the default) every replica is fully resynced up
        front, so the shipper starts from a known-identical state; pass
        ``resync=False`` when the replicas are known current (e.g. just
        created by ``build_shards``) and only the WAL tail matters.
        """
        from repro.gausstree.persist import wal_path_for

        self.primary_path = os.fspath(primary_path)
        self.replica_paths = [os.fspath(p) for p in replica_paths]
        self._offsets: dict[str, int] = {}
        # A resync folds the primary WAL's committed prefix into the
        # replica, so the shipped offset starts past it — restarting at
        # the magic would re-apply those txns, and replay is idempotent
        # for page images but NOT for the incremental key-table appends
        # (a duplicated append shifts every later key slot) or for row
        # edits (a duplicated one adds or drops a row).
        src_wal = wal_path_for(self.primary_path)
        synced = (
            WriteAheadLog.committed_length(src_wal)
            if os.path.exists(src_wal)
            else len(WAL_MAGIC)
        )
        for rp in self.replica_paths:
            if resync or not os.path.exists(rp):
                create_replica(self.primary_path, rp)
                self._offsets[rp] = synced
            else:
                self._offsets[rp] = len(WAL_MAGIC)

    def ship(self) -> int:
        """Forward newly committed primary WAL bytes to every replica.

        Returns the number of replicas that received (or were resynced
        to) new state. Apply reuses the recovery path, so each replica
        publishes a new generation atomically; a reader mid-query on a
        replica keeps its snapshot.
        """
        from repro.gausstree.persist import (
            _IndexLock,
            recover_index,
            wal_path_for,
        )

        src_wal = wal_path_for(self.primary_path)
        end = WriteAheadLog.committed_length(src_wal)
        updated = 0
        for rp in self.replica_paths:
            offset = self._offsets[rp]
            if offset > end or not os.path.exists(rp):
                # Primary WAL reset (checkpoint we were not told about)
                # or replica lost: incremental catch-up is impossible.
                create_replica(self.primary_path, rp)
                self._offsets[rp] = end
                updated += 1
                continue
            if offset == end:
                continue  # nothing new committed
            with open(src_wal, "rb") as src:
                src.seek(offset)
                delta = src.read(end - offset)
            dst_wal = wal_path_for(rp)
            try:
                with _IndexLock(rp) as lock:
                    with open(
                        dst_wal, "r+b" if os.path.exists(dst_wal) else "w+b"
                    ) as out:
                        out.seek(0)
                        if out.read(len(WAL_MAGIC)) != WAL_MAGIC:
                            out.seek(0)
                            out.write(WAL_MAGIC)
                        out.seek(0, os.SEEK_END)
                        out.write(delta)
                        out.flush()
                        os.fsync(out.fileno())
                    recover_index(rp, _lock=lock)
            except Exception:
                # Half-applied replica: next ship() rebuilds it.
                self._offsets[rp] = end + 1
                raise
            self._offsets[rp] = end
            updated += 1
        return updated

    def note_reset(self) -> None:
        """The primary just checkpointed *after* a ship(): replicas are
        logically current, so restart the offsets at the (now empty)
        primary WAL's magic instead of forcing a full resync."""
        for rp in self.replica_paths:
            self._offsets[rp] = len(WAL_MAGIC)

    def __repr__(self) -> str:
        return (
            f"WALShipper({self.primary_path!r}, "
            f"replicas={len(self.replica_paths)})"
        )
