"""Online re-sharding: split or merge a deployment's shards live.

``reshard(manifest, new_n_shards)`` rebuilds a sharded deployment at a
different shard count while queries keep flowing:

1. **Lock and materialize.** ``reshard`` first takes the writer lock
   (``<index>.lock``) of every current-generation primary and holds
   them through the cutover, so no writer can commit to a generation
   that is being replaced; a live writer makes it refuse with
   :class:`~repro.cluster.backend.ClusterError` before anything is
   written. Under those locks it replays each shard's committed WAL
   tail (a crashed writer's last batches), then reads every object
   back through a read-only sharded session over the recovered
   primaries and checks the count against their headers (the
   manifest's counts date from its writer's last flush or close).
2. **Repartition & bulk-load.** The objects are re-placed under the
   (possibly new) policy and each new shard is STR bulk-loaded into a
   fresh index file of the *next generation* —
   ``<prefix>.g<G+1>.shard-NN.gauss`` — beside the old files, never
   touching them. Replica clones are created per new shard.
3. **Cut over atomically.** One ``os.replace`` of the manifest (with
   ``generation`` and the placement epoch bumped) publishes the new
   layout. A session opened before the cutover keeps its open file
   descriptors on the old generation and finishes its queries on a
   consistent snapshot; a session opened after it sees only the new
   one. There is no in-between: the manifest is the single switch.

Safe under concurrent readers, not under a live writer: close the
writable sessions (or ``repro serve --writable``) first; their commits
are then in the shard files ``reshard`` reads.

Old-generation files are deliberately left on disk — deleting them
would yank pages from under pre-cutover sessions. :func:`reshard_gc`
removes them once no reader of the old generation remains (probed via
the per-index lock sidecars; see
:func:`repro.gausstree.persist.index_files_in_use`).
"""

from __future__ import annotations

import dataclasses
import glob
import os

from repro.core.database import PFVDatabase
from repro.cluster.backend import ClusterError
from repro.cluster.partition import (
    MANIFEST_SUFFIX,
    PARTITION_POLICIES,
    ShardInfo,
    ShardManifest,
    load_manifest,
    partition_database,
)

__all__ = ["reshard", "reshard_gc"]


def _generation_prefix(manifest_path: str, generation: int) -> str:
    """Shard-file prefix of one manifest generation (generation 0 keeps
    the original ``build_shards`` names, so resharding back and forth
    never collides with them)."""
    base = os.path.abspath(manifest_path)
    if base.endswith(MANIFEST_SUFFIX):
        base = base[: -len(MANIFEST_SUFFIX)]
    return base if generation == 0 else f"{base}.g{generation}"


def reshard(
    manifest_path,
    new_n_shards: int,
    *,
    policy: str | None = None,
    page_size: int = 8192,
    replicas: int | None = None,
) -> ShardManifest:
    """Re-shard a deployment to ``new_n_shards`` shards, cutting over
    atomically via the manifest.

    ``policy`` defaults to the deployment's current policy,
    ``replicas`` to its current per-shard replica count. Returns the
    new manifest (``source_path`` set). Safe under concurrent readers:
    they either see the old generation or the new one, never a mix.
    Raises :class:`~repro.cluster.backend.ClusterError`, leaving the
    manifest untouched, while any shard is open writable: the writer's
    uncheckpointed commits are invisible to the materializing read, and
    its next manifest save would undo the cutover.
    """
    from repro.gausstree.persist import _IndexLock, read_header, recover_index

    if new_n_shards < 1:
        raise ValueError(f"new_n_shards must be >= 1, got {new_n_shards}")
    manifest_path = os.fspath(manifest_path)
    old = load_manifest(manifest_path)
    new_policy = policy if policy is not None else old.policy
    if new_policy not in PARTITION_POLICIES:
        raise ValueError(
            f"unknown partition policy {new_policy!r}; "
            f"choose from {PARTITION_POLICIES}"
        )
    if replicas is None:
        replicas = max((len(s.replicas) for s in old.shards), default=0)

    locks: list[_IndexLock] = []
    recovered = 0  # objects the recovered primaries' headers count
    try:
        for shard_id, path in enumerate(old.shard_paths()):
            if path is None:
                continue
            lock = _IndexLock(path)
            if not lock.acquire():
                raise ClusterError(
                    f"shard {shard_id} ({os.path.basename(path)}) is open "
                    "writable; close its writer before resharding (its "
                    "unflushed writes would be lost and its next manifest "
                    "save would undo the cutover)"
                )
            locks.append(lock)
            # A read-only open replays a crashed writer's committed tail
            # only if it can take this lock, which is now ours.
            recover_index(path, _lock=lock)
            recovered += read_header(path)["n_objects"]
        return _reshard_locked(
            manifest_path,
            old,
            recovered,
            new_n_shards,
            new_policy,
            page_size,
            replicas,
        )
    finally:
        for lock in locks:
            lock.release()


def _reshard_locked(
    manifest_path: str,
    old: ShardManifest,
    recovered: int,
    new_n_shards: int,
    new_policy: str,
    page_size: int,
    replicas: int,
) -> ShardManifest:
    from repro.engine.backends import create_backend
    from repro.gausstree.bulkload import bulk_load
    from repro.storage.layout import PageLayout
    from repro.storage.ship import create_replica, replica_path

    # 1. Materialize through a read-only sharded session over the
    # recovered primaries (a replica may lag a writer that died before
    # shipping), and check it against their headers.
    primaries = dataclasses.replace(
        old,
        shards=tuple(
            dataclasses.replace(info, replicas=()) for info in old.shards
        ),
    )
    backend = create_backend("sharded", primaries, options={})
    try:
        db: PFVDatabase = backend.database()
    finally:
        backend.close()
    if len(db) != recovered:
        raise ClusterError(
            f"reshard materialized {len(db)} objects but the recovered "
            f"shard headers count {recovered} — refusing to cut over"
        )

    # 2. Build the next generation beside the old files.
    generation = old.generation + 1
    prefix = _generation_prefix(manifest_path, generation)
    parts = partition_database(db, new_n_shards, new_policy)
    infos: list[ShardInfo] = []
    for i, part in enumerate(parts):
        if len(part) == 0:
            infos.append(ShardInfo(path=None, objects=0))
            continue
        shard_file = f"{prefix}.shard-{i:02d}.gauss"
        layout = PageLayout(dims=part.dims, page_size=page_size)
        tree = bulk_load(
            part.vectors, layout=layout, sigma_rule=part.sigma_rule
        )
        tree.save(shard_file)
        replica_names = tuple(
            os.path.basename(
                create_replica(shard_file, replica_path(shard_file, k))
            )
            for k in range(1, replicas + 1)
        )
        infos.append(
            ShardInfo(
                path=os.path.basename(shard_file),
                objects=len(part),
                replicas=replica_names,
            )
        )

    # 3. Atomic cutover: one manifest replace flips every future open.
    new_manifest = ShardManifest(
        policy=new_policy,
        n_shards=new_n_shards,
        sigma_rule=old.sigma_rule,
        shards=tuple(infos),
        source_path=None,
        placement_epoch=len(db),
        generation=generation,
    )
    new_manifest.save(manifest_path)
    return dataclasses.replace(new_manifest, source_path=manifest_path)


#: Lock/WAL sidecar suffixes that ride along with a shard index file.
_SIDECAR_SUFFIXES = (".wal", ".lock", ".readers.lock")


def reshard_gc(manifest_path, *, dry_run: bool = False) -> dict:
    """Garbage-collect shard files of superseded manifest generations.

    For every generation older than the manifest's current one, finds
    the leftover ``*.shard-NN.gauss`` files (and their replicas) that
    the cutover left on disk, probes each for live readers/writers via
    its flock sidecars (:func:`~repro.gausstree.persist.index_files_in_use`)
    and deletes the unreferenced, unused ones together with their WAL
    and lock sidecars. Files still held open by a pre-cutover session —
    or indistinguishable from held on a platform without ``fcntl`` —
    are reported as busy and left alone; re-run once those sessions
    close. ``dry_run=True`` only lists.

    Returns a report dict: ``generation`` (the current, surviving one),
    ``deleted`` and ``busy`` (sorted path lists), ``reclaimed_bytes``
    (size of the deleted index files plus sidecars, or of the
    candidates on a dry run) and ``dry_run``.
    """
    from repro.gausstree.persist import index_files_in_use

    manifest_path = os.path.abspath(os.fspath(manifest_path))
    manifest = load_manifest(manifest_path)
    live: set[str] = set()
    for p in manifest.shard_paths():
        if p is not None:
            live.add(os.path.realpath(p))
    for replicas in manifest.replica_paths():
        live.update(os.path.realpath(p) for p in replicas)

    deleted: list[str] = []
    busy: list[str] = []
    reclaimed = 0
    for generation in range(manifest.generation):
        prefix = _generation_prefix(manifest_path, generation)
        pattern = glob.escape(prefix) + ".shard-*.gauss*"
        for candidate in sorted(glob.glob(pattern)):
            if candidate.endswith(_SIDECAR_SUFFIXES):
                continue  # sidecars go with their index file
            if os.path.realpath(candidate) in live:
                continue  # still referenced (e.g. unchanged replicas)
            if index_files_in_use(candidate):
                busy.append(candidate)
                continue
            doomed = [candidate] + [
                candidate + suffix
                for suffix in _SIDECAR_SUFFIXES
                if os.path.exists(candidate + suffix)
            ]
            for path in doomed:
                try:
                    reclaimed += os.path.getsize(path)
                except OSError:
                    pass
                if not dry_run:
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
            deleted.append(candidate)
    return {
        "generation": manifest.generation,
        "deleted": deleted,
        "busy": busy,
        "reclaimed_bytes": reclaimed,
        "dry_run": dry_run,
    }
