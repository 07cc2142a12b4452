"""Deterministic shard assignment and per-shard index construction.

A sharded deployment splits one :class:`~repro.core.database.PFVDatabase`
into ``n_shards`` disjoint shard databases, bulk-loads a Gauss-tree per
shard and records the layout in a *manifest* file
(``<name>.shards.json``). The manifest is the connect() source of the
``"sharded"`` backend: it names the policy, the shard index files and
their object counts, so a serving process (or a pool worker) can open
exactly the shards it needs.

Two placement policies:

``"hash"``
    Stable content hash of the object's key (BLAKE2, *never* Python's
    randomised ``hash()``): the same object lands on the same shard in
    every process, every run, regardless of ``PYTHONHASHSEED``.
    Re-observations of one real-world object share a key and therefore a
    shard.
``"round-robin"``
    Position modulo ``n_shards``: perfectly balanced shard sizes, at the
    price of placement depending on insertion order. So that *later*
    writes keep routing deterministically, the manifest records a
    **placement epoch** — the number of objects ever placed — and a
    writable sharded session continues the sequence from there
    (persisting the advanced epoch when it flushes or closes).

Both policies assign every object to exactly one shard — the global
Bayes denominator is then the sum of the per-shard denominators, which
is what makes the distributed posterior merge of
:mod:`repro.cluster.backend` exact.

**Replication & generations (manifest v2).** Each shard may record a
list of replica index files (kept live by WAL shipping,
:mod:`repro.storage.ship`); the sharded backend routes reads to them
and fails over when a worker dies, the primary stays sole writer. A
``generation`` counter names the current shard-file family — online
re-sharding (:mod:`repro.cluster.reshard`) bulk-loads generation
``g+1`` files beside generation ``g`` and cuts over with one atomic
manifest replace, so in-flight queries keep reading the old generation.
Version-1 manifests (no replicas, generation 0) still load unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule
from repro.core.pfv import PFV

__all__ = [
    "PARTITION_POLICIES",
    "ShardInfo",
    "ShardManifest",
    "stable_shard_hash",
    "shard_of",
    "partition_database",
    "build_shards",
    "load_manifest",
]

PARTITION_POLICIES = ("hash", "round-robin")

MANIFEST_SUFFIX = ".shards.json"
_MANIFEST_VERSION = 2
#: Versions this build can read. v1 = no replicas/generation (PR 4/5);
#: v2 adds per-shard ``replicas`` lists and the manifest ``generation``.
_READABLE_VERSIONS = (1, 2)


def stable_shard_hash(v: PFV) -> int:
    """Process-stable 64-bit content hash of a pfv's identity.

    Hashes the ``repr`` of the key (ints, strings, tuples — anything
    with a stable repr) through BLAKE2b; anonymous vectors (``key is
    None``) fall back to their mu/sigma bytes so they still place
    deterministically.
    """
    if v.key is not None:
        payload = repr(v.key).encode("utf-8", "backslashreplace")
    else:
        payload = v.mu.tobytes() + v.sigma.tobytes()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def shard_of(v: PFV, position: int, n_shards: int, policy: str) -> int:
    """The shard index (``0 .. n_shards-1``) an object belongs to."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if policy == "hash":
        return stable_shard_hash(v) % n_shards
    if policy == "round-robin":
        return position % n_shards
    raise ValueError(
        f"unknown partition policy {policy!r}; "
        f"choose from {PARTITION_POLICIES}"
    )


def partition_database(
    db: PFVDatabase, n_shards: int, policy: str = "hash"
) -> list[PFVDatabase]:
    """Split ``db`` into ``n_shards`` disjoint shard databases.

    Every object lands in exactly one shard; shard databases keep the
    source's sigma rule so probabilities stay identical. Shards may be
    empty (e.g. more shards than objects) — the sharded backend treats
    an empty shard as contributing zero density mass.
    """
    shards: list[PFVDatabase] = [
        PFVDatabase(sigma_rule=db.sigma_rule) for _ in range(n_shards)
    ]
    for position, v in enumerate(db):
        shards[shard_of(v, position, n_shards, policy)].add(v)
    return shards


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardInfo:
    """One shard of a manifest: its index file and object count.

    ``path`` is ``None`` for an empty shard (an empty Gauss-tree has no
    dimensionality to serialize); the backend skips opening it but still
    counts it in the layout. ``objects`` is a hint, current as of the
    last save: a writer saves the manifest only when it flushes or
    closes, and every session counts from the shard index headers
    instead (``n_objects``, committed in the shard's own WAL).
    ``replicas`` lists the shard's replica index files (relative to the
    manifest, like ``path``); WAL shipping keeps them a committed prefix
    of the primary and readers may be routed to any of them.
    """

    path: str | None
    objects: int
    replicas: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class ShardManifest:
    """The on-disk description of a sharded index (``<name>.shards.json``).

    Shard paths are stored relative to the manifest file and resolved on
    load, so a manifest directory can be moved or mounted wholesale.
    """

    policy: str
    n_shards: int
    sigma_rule: str
    shards: tuple[ShardInfo, ...]
    source_path: str | None = None  # where the manifest was loaded from
    #: Objects ever placed through this deployment (``None`` in
    #: manifests predating writable sharding; resolved via
    #: :attr:`effective_placement_epoch`). Round-robin write routing
    #: continues the position sequence from here.
    placement_epoch: int | None = None
    #: Which shard-file family is current. Re-sharding writes
    #: generation ``g+1`` files beside generation ``g`` and bumps this
    #: in one atomic manifest replace (the cutover point); old files
    #: stay on disk for sessions that opened before the cutover.
    generation: int = 0

    @property
    def total_objects(self) -> int:
        """Objects across all shards (sum of the recorded counts, which
        are hints as of the last save; see :class:`ShardInfo`)."""
        return sum(s.objects for s in self.shards)

    @property
    def effective_placement_epoch(self) -> int:
        """The recorded placement epoch, defaulting to the object count
        for manifests written before writable sharding existed (correct
        for any manifest that never served deletes)."""
        return (
            self.placement_epoch
            if self.placement_epoch is not None
            else self.total_objects
        )

    def shard_paths(self) -> list[str | None]:
        """Absolute per-shard index paths (``None`` for empty shards)."""
        base = (
            os.path.dirname(os.path.abspath(self.source_path))
            if self.source_path
            else os.getcwd()
        )
        return [
            None if s.path is None else os.path.join(base, s.path)
            for s in self.shards
        ]

    def replica_paths(self) -> list[list[str]]:
        """Absolute replica index paths, one list per shard (possibly
        empty — a shard with no replicas has no failover targets)."""
        base = (
            os.path.dirname(os.path.abspath(self.source_path))
            if self.source_path
            else os.getcwd()
        )
        return [
            [os.path.join(base, r) for r in s.replicas] for s in self.shards
        ]

    def to_json(self) -> dict:
        """The manifest's JSON document (what :meth:`save` writes)."""
        return {
            "format": "gausstree-shards",
            "version": _MANIFEST_VERSION,
            "policy": self.policy,
            "n_shards": self.n_shards,
            "sigma_rule": self.sigma_rule,
            "placement_epoch": self.effective_placement_epoch,
            "generation": self.generation,
            "shards": [
                {
                    "path": s.path,
                    "objects": s.objects,
                    "replicas": list(s.replicas),
                }
                for s in self.shards
            ],
        }

    def save(self, path) -> str:
        """Write the manifest JSON to ``path``; returns the path.

        Atomic and durable: the JSON goes to a sibling temp file, which
        is fsynced, renamed over ``path``, and then the directory is
        fsynced, so a crash leaves either the old manifest or the new
        one, never a torn one. Saves happen only at lifecycle events —
        ``build_shards``, a writable session's ``flush()``/``close()``
        and its creation of a shard index, the reshard cutover — never
        per write commit.
        """
        path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(path)) or "."
        tmp_path = os.path.join(
            directory, f".{os.path.basename(path)}.tmp.{os.getpid()}"
        )
        try:
            with open(tmp_path, "w", encoding="utf-8") as f:
                json.dump(self.to_json(), f, indent=2)
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        _fsync_directory(directory)
        return path


def _fsync_directory(directory: str) -> None:
    """Make a rename inside ``directory`` durable (a no-op where
    directories cannot be opened, as on Windows)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_manifest(path) -> ShardManifest:
    """Parse and validate a ``.shards.json`` manifest.

    Raises :class:`~repro.cluster.backend.ClusterError` on anything that
    would otherwise surface later as a confusing failure: unparseable
    JSON, a different file format, or a shard count that does not match
    the shard list.
    """
    from repro.cluster.backend import ClusterError

    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ClusterError(f"shard manifest not found: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ClusterError(
            f"cannot parse shard manifest {path}: {exc}"
        ) from exc
    if not isinstance(data, dict) or data.get("format") != "gausstree-shards":
        raise ClusterError(
            f"{path} is not a gauss-tree shard manifest "
            "(missing format marker 'gausstree-shards')"
        )
    if data.get("version") not in _READABLE_VERSIONS:
        raise ClusterError(
            f"unsupported manifest version {data.get('version')!r} in {path} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    try:
        shards = tuple(
            ShardInfo(
                path=s["path"],
                objects=int(s["objects"]),
                replicas=tuple(str(r) for r in s.get("replicas", ())),
            )
            for s in data["shards"]
        )
        raw_epoch = data.get("placement_epoch")
        manifest = ShardManifest(
            policy=str(data["policy"]),
            n_shards=int(data["n_shards"]),
            sigma_rule=str(data["sigma_rule"]),
            shards=shards,
            source_path=path,
            placement_epoch=None if raw_epoch is None else int(raw_epoch),
            generation=int(data.get("generation", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterError(
            f"malformed shard manifest {path}: {exc!r}"
        ) from exc
    if manifest.n_shards != len(manifest.shards):
        raise ClusterError(
            f"manifest {path} declares n_shards={manifest.n_shards} but "
            f"lists {len(manifest.shards)} shards"
        )
    if manifest.policy not in PARTITION_POLICIES:
        raise ClusterError(
            f"manifest {path} uses unknown policy {manifest.policy!r}"
        )
    return manifest


def build_shards(
    db: PFVDatabase,
    n_shards: int,
    out_prefix,
    *,
    policy: str = "hash",
    page_size: int = 8192,
    replicas: int = 0,
) -> ShardManifest:
    """Partition ``db``, save one Gauss-tree index per shard and write
    the manifest ``<out_prefix>.shards.json``.

    Shard files are named ``<out_prefix>.shard-NN.gauss`` and live next
    to the manifest (recorded relative, so the set relocates together).
    With ``replicas=k`` each non-empty shard additionally gets ``k``
    replica clones (``<shard>.r1`` ...), recorded in the manifest for
    read routing and failover; WAL shipping keeps them current once the
    deployment takes writes. Returns the saved manifest (``source_path``
    set).
    """
    from repro.gausstree.bulkload import bulk_load
    from repro.storage.layout import PageLayout
    from repro.storage.ship import create_replica, replica_path

    if replicas < 0:
        raise ValueError(f"replicas must be >= 0, got {replicas}")
    out_prefix = os.fspath(out_prefix)
    if out_prefix.endswith(MANIFEST_SUFFIX):
        out_prefix = out_prefix[: -len(MANIFEST_SUFFIX)]
    directory = os.path.dirname(os.path.abspath(out_prefix)) or os.getcwd()
    os.makedirs(directory, exist_ok=True)
    parts = partition_database(db, n_shards, policy)
    infos: list[ShardInfo] = []
    for i, part in enumerate(parts):
        if len(part) == 0:
            infos.append(ShardInfo(path=None, objects=0))
            continue
        shard_path = f"{out_prefix}.shard-{i:02d}.gauss"
        layout = PageLayout(dims=part.dims, page_size=page_size)
        tree = bulk_load(
            part.vectors, layout=layout, sigma_rule=part.sigma_rule
        )
        tree.save(shard_path)
        replica_names = tuple(
            os.path.basename(
                create_replica(shard_path, replica_path(shard_path, k))
            )
            for k in range(1, replicas + 1)
        )
        infos.append(
            ShardInfo(
                path=os.path.basename(shard_path),
                objects=len(part),
                replicas=replica_names,
            )
        )
    manifest = ShardManifest(
        policy=policy,
        n_shards=n_shards,
        sigma_rule=(
            db.sigma_rule.value
            if isinstance(db.sigma_rule, SigmaRule)
            else str(db.sigma_rule)
        ),
        shards=tuple(infos),
        source_path=None,
        placement_epoch=len(db),
    )
    manifest_path = out_prefix + MANIFEST_SUFFIX
    manifest.save(manifest_path)
    return dataclasses.replace(manifest, source_path=manifest_path)
