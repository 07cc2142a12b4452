"""``repro.cluster`` — sharded serving over the unified engine.

The scaling layer the ROADMAP's serving story plugs into: one database
split into N disjoint shards, each behind its own inner backend, fanned
out to by a :class:`~repro.cluster.backend.ShardedBackend` that merges
per-shard answers into *globally correct* posteriors (the Bayes
denominator spans every shard; see :mod:`repro.cluster.backend` for the
math). The network front end that serves any session is
:mod:`repro.serve`; this package keeps its wire format and the stdlib
HTTP client.

The lifecycle:

1. :func:`build_shards` (CLI: ``repro shard-build``) partitions a
   database deterministically (``hash`` or ``round-robin`` policy),
   saves one Gauss-tree index per shard and writes a
   ``<name>.shards.json`` manifest;
2. ``repro.connect(manifest, backend="sharded")`` opens a session that
   fans batches out to the shards one after another through
   :class:`~repro.cluster.pool.SerialPool`, which keeps each shard's
   session and page buffer open across batches; ``writable=True``
   additionally arms the **write router** — inserts/deletes route to
   the owning shard by the placement policy, batches group-commit per
   shard, and the manifest's counts + placement epoch refresh on every
   commit;
3. :func:`repro.serve.serve_async` (CLI: ``repro serve``) exposes any
   session — sharded or not — over pipelined JSONL and HTTP
   (``--sessions N`` executes concurrent batches on N pooled sessions;
   ``--writable`` accepts ``POST /insert`` serialized on the primary),
   with :class:`ServeClient` as the matching stdlib HTTP client and
   :mod:`~repro.cluster.wire` as the shared workload format
   (``repro query --input queries.jsonl`` speaks it too).

Elasticity (PR 7): ``repro shard-build --replicas K`` clones each shard
K times; a writable session WAL-ships every committed batch to the
clones (:mod:`repro.storage.ship`), read-only sessions rotate reads
across them and the pool retries a failed task on the next replica — a
lost replica file costs a retry, not the batch. :func:`reshard`
(CLI: ``repro reshard``) rebuilds the deployment at a new shard count
and cuts over atomically via the manifest while queries keep flowing;
:func:`reshard_gc` (CLI: ``repro reshard-gc``) later deletes the
superseded generation's files once flock probes show no live readers.

Importing this package registers the ``"sharded"`` backend with the
engine registry (``repro`` imports it eagerly, so ``connect(...,
backend="sharded")`` always works).
"""

from repro.cluster.backend import ClusterError, ShardedBackend
from repro.cluster.client import RemoteAnswer, RemoteError, ServeClient
from repro.cluster.partition import (
    PARTITION_POLICIES,
    ShardInfo,
    ShardManifest,
    build_shards,
    load_manifest,
    partition_database,
    shard_of,
    stable_shard_hash,
)
from repro.cluster.pool import SerialPool
from repro.cluster.reshard import reshard, reshard_gc
from repro.cluster.wire import (
    WireError,
    dump_jsonl,
    load_jsonl,
    pfv_from_json,
    pfv_to_json,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "ClusterError",
    "ShardedBackend",
    "PARTITION_POLICIES",
    "ShardInfo",
    "ShardManifest",
    "build_shards",
    "load_manifest",
    "partition_database",
    "shard_of",
    "stable_shard_hash",
    "SerialPool",
    "reshard",
    "reshard_gc",
    "ServeClient",
    "RemoteAnswer",
    "RemoteError",
    "WireError",
    "spec_to_json",
    "spec_from_json",
    "pfv_to_json",
    "pfv_from_json",
    "load_jsonl",
    "dump_jsonl",
]
