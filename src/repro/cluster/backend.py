"""The ``"sharded"`` backend: fan-out over N shard sessions, exact merge.

Each shard holds a disjoint slice of the database behind its own inner
backend (``tree``, ``disk``, ``seqscan`` — anything registered). A batch
fans out through :class:`~repro.cluster.pool.SerialPool`, one shard
after another in the calling thread, and the per-shard answers merge
into *globally correct* identification results.

The merge is the interesting part. A shard can only normalise posteriors
over its own objects::

    P_s(v | q) = p(q | v) / Z_s,   Z_s = sum_{w in shard s} p(q | w)

but the paper's identification posterior conditions on the closed world
of the *whole* database, whose Bayes denominator spans every shard::

    P(v | q) = p(q | v) / Z,       Z = sum_s Z_s

Because shards partition the database, ``Z`` is exactly the sum of the
per-shard denominators — including shards that contributed *no*
candidate (their density mass still shrinks everyone else's posterior).
Every shard therefore reports, per query, its total density ``log Z_s``
(recovered from its top match: ``log Z_s = log p(q|v_top) -
log P_s(v_top|q)``, with an MLIQ(q, 1) probe for TIQ batches whose local
answer set is empty), and the merge renormalises the union of shard
candidates against ``log Z = logsumexp_s(log Z_s)``.

Shard answers reach the merge as row references
(:class:`~repro.core.queries.RowMatch`: a log density, a shard posterior
and the stored row), and the coordinator builds a pfv only for the
matches it returns — the MLIQ top-k, the TIQ survivors, the ranked
prefix — through ``LeafNode.entry_at``.

Correctness of the candidate sets:

* **MLIQ(k)** — the global top-k by posterior is the top-k by density,
  and each shard returns its local top-k by density, so the union of
  local top-k lists contains the global top-k.
* **TIQ(tau)** — ``Z_s <= Z`` means every local posterior bounds the
  global one from above, so each shard's local TIQ(tau) answer is a
  superset of the global answers living on that shard; the merge then
  applies the exact global filter ``p(q|v)/Z >= tau``.
* **RankQuery** — lowered to MLIQ by the session, which applies the
  ``min_mass`` cut *after* this merge, i.e. against global posteriors.
* **ConsensusTopK / ExpectedRank** — the ranked semantics of
  :mod:`repro.engine.semantics` need, beyond the global posteriors, the
  count and posterior mass of the objects strictly above each answer —
  all of which live inside the global top-k prefix. The dedicated
  ``"ranked"`` payload generalises the log-Z pattern: each shard
  piggybacks per query its candidate posteriors, its total density mass
  ``log Z_s`` *and* the density mass at-or-above its own cutoff (the
  returned candidates' logsumexp), so the coordinator can both compute
  the scores exactly from the merged prefix and *certify* exactness —
  a truncated shard whose cutoff outranks the global cutoff, or whose
  above-cutoff mass exceeds its total, means a malformed reply and
  raises :class:`ClusterError` instead of silently mis-ranking.

**Writable sharded sessions (the write router).** Opened with
``connect(..., backend="sharded", writable=True)``, the fan-out also
accepts ``insert``/``insert_many``/``delete`` (and the engine's
``Insert``/``Delete`` specs through ``execute_many``): every write
routes to its **owning shard** under the deployment's placement policy
— the stable key hash directly, round-robin by the manifest's recorded
*placement epoch*, which keeps counting positions where the original
partitioning stopped. Writes land on per-shard *writable* child
sessions held by the pool — the same sessions queries fan out to, so an
interleaved write+query workload is read-your-writes consistent and the
parity property holds against a single writable tree. Batches
group-commit per shard (one WAL fsync per touched shard). The per-shard
object counts and the placement epoch stay in memory: the manifest is
saved (and fsynced) only at ``flush()``, ``close()`` and the creation
of a shard index, since each commit already logs the shard's count in
its own header (``n_objects`` in the WAL ``META`` image).

**Counts.** The manifest's per-shard ``objects`` are hints. A writable
open counts each shard from its recovered index; a read-only session
counts each shard from the header of the index file its fan-out reads
(the replica it routes to, else the primary), or from the shard's
session where a primary's WAL holds commits, and after each fan-out
from the sessions that answered. So ``len()`` is what the fan-out can
return: a crashed writer's WAL tail counts (the read-only open replays
it), and a live writer's uncheckpointed writes count only where they
were shipped to a replica the session reads.

**Replicas & failover.** A v2 manifest may record replica index files
per shard. A *writable* session ships its WAL to them after every
committed batch (:class:`~repro.storage.ship.WALShipper` — replica
apply is the crash-recovery path, so a replica is always a committed
prefix of the primary) and the primary stays sole writer. A *read-only*
session routes each fan-out to a replica (rotating across them;
the primary is the last-resort fallback, since an external writer may
leave the primary's main file at its last checkpoint while replicas got
the shipped tail) and arms the pool's retry hook: a replica that will
not open or fails mid-batch re-targets the failed task onto the next
replica of the same shard, so the batch completes with answers
bit-identical to the fault-free run. A replica file that would not open
is skipped for the rest of the session, so its loss costs one retry,
not one per batch.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
import time

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.core.database import PFVDatabase
from repro.core.gaussian import logsumexp
from repro.core.pfv import PFV
from repro.core.queries import Match, MLIQuery, QueryStats, RowMatch
from repro.engine.backends import (
    BackendAdapter,
    PlanEstimate,
    as_database,
    create_backend,
    register_backend,
)
from repro.engine.session import Session
from repro.engine.spec import MLIQ, TIQ
from repro.cluster.partition import (
    MANIFEST_SUFFIX,
    ShardInfo,
    ShardManifest,
    load_manifest,
    partition_database,
    shard_of,
)
from repro.cluster.pool import ClusterError, SerialPool, _shard_label

__all__ = ["ClusterError", "ShardedBackend", "ShardReply"]

#: Inner backends whose answers provably equal the sequential scan;
#: a sharded deployment over them stays exact (third-party inners are
#: probed for the capability instead).
_EXACT_INNER = {"tree", "disk", "seqscan"}


# ---------------------------------------------------------------------------
# Shard-side pieces: opening a shard and running one payload on it
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ShardReply:
    """One shard's answer to one fanned-out payload.

    ``per_query`` holds ``(matches, log_total)`` pairs in query order:
    the shard-local answer list (posteriors still shard-normalised; row
    references from a Gauss-tree shard) and the shard's log Bayes
    denominator ``log Z_s`` for that query (``-inf`` for an empty shard
    or fully underflowed densities). ``n_objects`` is the object count
    of the shard session that answered: what its answers range over.

    ``aux`` is ``None`` except for ``"ranked"`` payloads, where it
    holds one ``log_above`` per query: the log density mass at-or-above
    the shard's own cutoff (the returned candidates' logsumexp) — with
    ``n_objects``, the per-shard sufficient statistics the coordinator
    uses to certify that global consensus / expected-rank scores are
    exact.
    """

    per_query: list[tuple[list[Match | RowMatch], float]]
    stats: QueryStats
    n_objects: int
    aux: list[float] | None = None


class _ShardOpener:
    """``opener(key) -> Session`` over the shard sources.

    Sources are per-shard index file paths (manifest mode) or per-shard
    :class:`PFVDatabase` slices (in-memory mode). The pool calls this
    lazily, so a session opens only the shards it actually reads. The
    task key is an ``int`` shard id (the primary) or ``(shard_id,
    replica_idx)`` with ``replica_idx >= 1`` naming one of the shard's
    replica files from ``replica_sources`` — replicas always open
    read-only (the primary is sole writer). ``lost`` collects the
    replica keys whose open failed; the backend routes around them.
    """

    def __init__(
        self,
        sources: list,
        inner: str,
        inner_options: dict,
        writable: bool = False,
        replica_sources: list | None = None,
    ) -> None:
        self.sources = sources
        self.inner = inner
        self.inner_options = dict(inner_options)
        self.writable = writable
        self.replica_sources = replica_sources
        self.lost: set[tuple[int, int]] = set()

    def source_of(self, key):
        """The index source a task key names (``None`` for a shard
        without one)."""
        shard_id, replica_idx = _split_key(key)
        if replica_idx == 0:
            return self.sources[shard_id]
        replicas = (
            self.replica_sources[shard_id]
            if self.replica_sources is not None
            else []
        )
        return (
            replicas[replica_idx - 1]
            if replica_idx - 1 < len(replicas)
            else None
        )

    def __call__(self, key) -> Session:
        """Open one task key's session (writable only for a primary key
        of a writable deployment)."""
        replica = _split_key(key)[1] > 0
        source = self.source_of(key)
        if source is None:
            raise ClusterError(
                f"shard {_shard_label(key)} is empty and has no index "
                "to open"
            )
        try:
            backend = create_backend(
                self.inner,
                source,
                writable=self.writable and not replica,
                options=dict(self.inner_options),
            )
        except Exception as exc:
            if replica:
                self.lost.add(key)
            if isinstance(exc, ClusterError):
                raise
            raise ClusterError(
                f"cannot open shard {_shard_label(key)} "
                f"({source if isinstance(source, str) else 'in-memory'}) "
                f"with inner backend {self.inner!r}: {exc}"
            ) from exc
        return Session(backend)


def _split_key(key) -> tuple[int, int]:
    """A task key as ``(shard_id, replica_idx)``; 0 is the primary."""
    return key if isinstance(key, tuple) else (key, 0)


def _shard_log_total(matches: list[Match | RowMatch]) -> float:
    """Recover ``log Z_s`` from a shard's answer list.

    The top match has the shard's maximal posterior (``>= 1/n_s``), so
    ``log p(q|v) - log P_s(v|q)`` reproduces the local log-sum-exp
    denominator at full float precision. Empty lists and underflowed
    densities yield ``-inf`` — a shard contributing no mass.
    """
    if not matches:
        return -math.inf
    top = max(matches, key=lambda m: m.probability)
    if top.probability <= 0.0 or math.isinf(top.log_density):
        return -math.inf
    return top.log_density - math.log(top.probability)


def _run_shard_payload(session: Session, payload) -> ShardReply:
    """Execute one fanned-out payload on an open shard session (the
    pool's runner).

    Payloads are ``("mliq", [(q, k), ...])``, ``("tiq", [(q, tau, eps),
    ...])`` or ``("ranked", [(q, k), ...])``; TIQ payloads piggyback an
    ``MLIQ(q, 1)`` denominator probe per query in the same batch, so a
    shard whose threshold answer is empty still reports its total
    density mass, and ranked payloads (consensus / expected-rank)
    piggyback the per-shard sufficient statistics described on
    :class:`ShardReply`. Answers stay row references
    (``Session._execute_many(..., build=False)``, which keeps the
    ``session.execute`` and ``run.query`` spans).
    """
    kind, items = payload
    n_objects = len(session)
    if kind == "mliq":
        specs = [MLIQ(q, k) for q, k in items]
        rs = session._execute_many(specs, build=False)
        per = [(list(matches), _shard_log_total(matches)) for matches in rs]
        return ShardReply(per, rs.stats, n_objects)
    if kind == "ranked":
        specs = [MLIQ(q, k) for q, k in items]
        rs = session._execute_many(specs, build=False)
        per, aux = [], []
        for matches in rs:
            matches = list(matches)
            per.append((matches, _shard_log_total(matches)))
            aux.append(
                logsumexp([m.log_density for m in matches])
                if matches
                else -math.inf
            )
        return ShardReply(per, rs.stats, n_objects, aux)
    if kind == "tiq":
        tiqs = [TIQ(q, tau, eps) for q, tau, eps in items]
        probes = [MLIQ(q, 1) for q, _, _ in items]
        rs = session._execute_many([*tiqs, *probes], build=False)
        per = []
        for i in range(len(items)):
            matches = list(rs[i])
            probe = rs[len(items) + i]
            per.append((matches, _shard_log_total(probe)))
        return ShardReply(per, rs.stats, n_objects)
    raise ClusterError(f"unknown shard payload kind {kind!r}")


def _global_matches(
    merged: list[tuple[Match | RowMatch, float]]
) -> list[Match]:
    """The matches a merge returns, each with its global posterior; a
    shard's row reference builds its pfv here (``LeafNode.entry_at``)."""
    return [Match(c.vector, c.log_density, p) for c, p in merged]


# ---------------------------------------------------------------------------
# The fan-out backend
# ---------------------------------------------------------------------------


class ShardedBackend(BackendAdapter):
    """Fan a batch out to N shard sessions and merge globally.

    Connect over a shard manifest (built by ``repro shard-build`` /
    :func:`~repro.cluster.partition.build_shards`)::

        repro.connect("ds1.shards.json", backend="sharded")

    or shard an in-memory source on the fly (the parity-testing path)::

        repro.connect(db, backend="sharded", shards=3, inner="tree")

    Options: ``inner`` (inner backend name; default ``"disk"`` for a
    manifest, ``"tree"`` for in-memory sources), ``shards`` + ``policy``
    (in-memory partitioning), ``inner_options`` (dict forwarded to every
    shard's backend factory).

    With ``connect(..., writable=True)`` the deployment also routes
    writes: inserts land on the shard the placement policy owns them to
    (round-robin continues from the manifest's recorded placement
    epoch) and batches group-commit per shard. Writable sessions hold
    writable child sessions in the pool, so queries read their own
    writes. They keep the per-shard counts and the placement epoch in
    memory and save the manifest only at ``flush()``, ``close()`` and
    when a write creates a shard's index file.

    A read-only session never trusts the manifest's counts: it reads
    each shard's count from the header of the index file it routes to
    (see :meth:`_header_count`) and, once the shard answers, from the
    shard session, so ``len()`` is what the fan-out can return;
    ``database()``, ``explain()`` and ``cold_start()`` read the sessions
    the fan-out reads (:meth:`_session_for`).
    """

    def __init__(
        self,
        sources: list,
        counts: list[int],
        *,
        inner: str,
        inner_options: dict,
        manifest: ShardManifest | None = None,
        writable: bool = False,
        policy: str | None = None,
        placement_epoch: int | None = None,
        replicas: list | None = None,
        runner=None,
    ) -> None:
        if len(sources) != len(counts):
            raise ValueError("one object count per shard source required")
        self.inner = inner
        self.manifest = manifest
        self._writable = writable
        #: Per-shard replica index paths (empty lists without replicas).
        #: Read-only sessions route fan-outs to them; writable sessions
        #: keep them current by WAL shipping after every commit.
        self._replicas: list[list[str]] = [
            list(r) for r in (replicas or [])
        ]
        while len(self._replicas) < len(sources):
            self._replicas.append([])
        self._shippers: dict[int, object] = {}
        self._rotation = 0
        #: The shard payload runner — a test can substitute a
        #: fault-injecting wrapper.
        self._runner = runner if runner is not None else _run_shard_payload
        #: Placement policy writes route by (from the manifest, or the
        #: in-memory partitioning choice; None on read-only sessions
        #: over pre-sharded sources whose policy is unknown).
        self.policy = policy
        #: Positions ever placed; round-robin routing continues here.
        self._placement_epoch = (
            placement_epoch if placement_epoch is not None else sum(counts)
        )
        self._counts = list(counts)
        self._sources = list(sources)
        self._opener = _ShardOpener(
            self._sources,
            inner,
            inner_options,
            writable=writable,
            replica_sources=self._replicas,
        )
        # With replicas on a read-only session, arm the pool's retry
        # hook: enough attempts to visit every replica plus the primary
        # (the last-resort fallback), re-targeted by _failover_target.
        max_replicas = max((len(r) for r in self._replicas), default=0)
        use_failover = max_replicas > 0 and not writable
        self._pool = SerialPool(
            self._opener,
            self._runner,
            attempts=max_replicas + 2 if use_failover else 1,
            failover=self._failover_target if use_failover else None,
        )
        if writable:
            # Open every shard eagerly and trust the *indexes*, not the
            # manifest: a crashed writer leaves manifest counts stale
            # while the shard WALs replay the truth on open. The epoch
            # can be stale the same way; it never goes backwards (it
            # only balances round-robin placement, it cannot affect
            # answer correctness).
            for i, source in enumerate(self._sources):
                if source is not None:
                    self._counts[i] = len(self._pool.session(i))
            self._placement_epoch = max(
                self._placement_epoch, sum(self._counts)
            )
        else:
            for i, source in enumerate(self._sources):
                if isinstance(source, str):
                    self._counts[i] = self._header_count(i)
        #: Shards that hold at least one object; empty shards never get
        #: tasks (an empty shard's denominator contribution is zero).
        self._active = [i for i, c in enumerate(self._counts) if c > 0]
        self._pending_provenance: list[tuple[str, QueryStats]] = []
        self.name = f"sharded({inner}x{len(sources)})"
        caps = {"mliq", "tiq", "batch"}
        if self._inner_is_exact():
            caps.add("exact")
        if writable:
            caps.add("writable")
        self.capabilities = frozenset(caps)
        self._closed = False

    # -- shard plumbing ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Shards in the deployment layout (empty ones included)."""
        return len(self._sources)

    def _inner_is_exact(self) -> bool:
        if self.inner in _EXACT_INNER:
            return True
        if self.inner == "xtree":
            return False
        if not self._active:  # empty deployment answers exactly (nothing)
            return True
        probe = self._pool.session(self._active[0])
        return "exact" in probe.capabilities

    def _task_key(self, shard_id: int):
        """The pool task key a fan-out uses for one shard.

        Writable sessions (and shards without replicas) read the
        primary. Read-only sessions with replicas rotate across them —
        an external writer may leave the primary's main file at its
        last checkpoint while the replicas carry the shipped WAL tail,
        so replicas are the *fresher* read targets, not just spares.
        A replica whose file would not open is skipped for the rest of
        the session; with none left, the primary is read.
        """
        if self._writable or not self._replicas[shard_id]:
            return shard_id
        live = self._live_replicas(shard_id)
        if not live:
            return (shard_id, 0)
        return (shard_id, live[self._rotation % len(live)])

    def _live_replicas(self, shard_id: int) -> list[int]:
        """The shard's replica indexes, minus those that failed to open."""
        lost = self._opener.lost
        return [
            r
            for r in range(1, len(self._replicas[shard_id]) + 1)
            if (shard_id, r) not in lost
        ]

    def _failover_target(self, key, attempt: int):
        """Pool retry hook: the next replica of the failed task's shard
        (cycling through every replica that has not failed to open,
        then the primary)."""
        shard_id, replica_idx = _split_key(key)
        if not self._replicas[shard_id]:
            return None
        order = [*self._live_replicas(shard_id), 0]  # primary last
        position = order.index(replica_idx) if replica_idx in order else -1
        return (shard_id, order[(position + 1) % len(order)])

    def _header_count(self, shard_id: int) -> int:
        """A read-only session's count of one shard, read at open.

        ``n_objects`` from the header of the index file the shard's
        fan-out reads first; a file whose header does not read falls
        through the failover order (the next replica, the primary
        last) without counting a retry. Replica headers are current:
        shipping republishes them after every write. A primary whose
        WAL holds commits opens at once and counts from its session,
        which replays a crashed writer's tail and skips a live
        writer's; every other shard opens lazily. The manifest's count
        stands when no header reads, and the shard's lazy open then
        reports the failure.
        """
        from repro.gausstree.persist import read_header, wal_path_for
        from repro.storage.wal import WriteAheadLog

        key = self._task_key(shard_id)
        for attempt in range(1, len(self._replicas[shard_id]) + 2):
            path = self._opener.source_of(key)
            try:
                count = read_header(path)["n_objects"]
            except (OSError, ValueError):
                key = self._failover_target(key, attempt)
                if key is None:
                    break
                continue
            if _split_key(key)[1] == 0 and WriteAheadLog.has_committed(
                wal_path_for(path)
            ):
                return len(self._pool.session(key))
            return count
        return self._counts[shard_id]

    def _session_for(self, shard_id: int) -> Session:
        """The session a shard's metadata reads (:meth:`database`,
        :meth:`estimate`, :meth:`cold_start`): the one its fan-out
        reads (:meth:`_task_key`), and for a file that does not open the
        next in :meth:`_header_count`'s failover order (the next replica,
        the primary last), so metadata describes what queries answer
        from and opens no second session per shard."""
        key = self._task_key(shard_id)
        for attempt in range(1, len(self._replicas[shard_id]) + 1):
            try:
                return self._pool.session(key)
            except ClusterError:
                key = self._failover_target(key, attempt)
        return self._pool.session(key)

    def _shipper(self, shard_id: int):
        """The shard's lazily built WAL shipper (None without replicas).

        First construction fully resyncs the replicas: a predecessor
        writer may have crashed after committing but before shipping,
        and the resync re-establishes the replica-is-a-committed-prefix
        invariant from the recovered primary.
        """
        if not self._replicas[shard_id] or self._sources[shard_id] is None:
            return None
        shipper = self._shippers.get(shard_id)
        if shipper is None:
            from repro.storage.ship import WALShipper

            shipper = WALShipper(
                self._sources[shard_id], self._replicas[shard_id]
            )
            self._shippers[shard_id] = shipper
        return shipper

    def _ship_replicas(self, shard_ids) -> None:
        """Forward freshly committed WAL bytes to the shards' replicas."""
        for shard_id in shard_ids:
            shipper = self._shipper(shard_id)
            if shipper is not None:
                shipper.ship()

    def _fan_out(self, payload) -> list[tuple[int, ShardReply]]:
        active = list(self._active)
        tasks = [(self._task_key(i), payload) for i in active]
        self._rotation += 1
        active_trace = _obs_trace.current_trace()
        started = time.perf_counter()
        if active_trace is not None:
            with active_trace.span(
                "cluster.fanout", count=len(tasks)
            ) as fanout_span:
                replies = self._pool.run(tasks)
                # Per-shard spans are synthesized from the replies, each
                # spanning the whole fan-out; the shard sessions' own
                # spans nest beside them, in shard order, since the pool
                # runs in the calling thread.
                done = active_trace.now()
                for shard_id, reply in zip(active, replies):
                    active_trace.add(
                        "shard",
                        start=fanout_span.start,
                        dur=done - fanout_span.start,
                        shard=f"{shard_id:02d}",
                        pages=reply.stats.pages_accessed,
                    )
        else:
            replies = self._pool.run(tasks)
        elapsed = time.perf_counter() - started
        _obs_metrics.counter(
            "repro_cluster_fanouts_total",
            "Batches fanned out across the active shards.",
        ).inc()
        _obs_metrics.histogram(
            "repro_cluster_fanout_seconds",
            "Wall time of one whole-cluster fan-out (all shards).",
        ).observe(elapsed)
        for shard_id, reply in zip(active, replies):
            self._pending_provenance.append(
                (f"shard-{shard_id:02d}:{self.inner}", reply.stats)
            )
            # The session that answered knows the shard's true count
            # (its open may have replayed a WAL tail the header lacks).
            self._set_count(shard_id, reply.n_objects)
        return list(zip(active, replies))

    def take_provenance(self) -> tuple[tuple[str, QueryStats], ...]:
        """Per-shard (name, stats) pairs accumulated since the last take
        — the session attaches them to the ResultSet it returns."""
        taken = tuple(self._pending_provenance)
        self._pending_provenance = []
        return taken

    # -- query execution -----------------------------------------------------

    def _mliq_batch(
        self, queries: list[MLIQuery]
    ) -> tuple[list[list[Match]], QueryStats]:
        payload = ("mliq", [(query.q, query.k) for query in queries])
        shard_replies = self._fan_out(payload)
        total = QueryStats()
        for _, reply in shard_replies:
            total.merge(reply.stats)
        results: list[list[Match]] = []
        n = self.count()
        for j, query in enumerate(queries):
            merged = self._merge_candidates(shard_replies, j, n)
            results.append(_global_matches(merged[: query.k]))
        return results, total

    def _tiq_batch(
        self, specs: list[TIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        payload = ("tiq", [(s.q, s.tau, s.eps) for s in specs])
        shard_replies = self._fan_out(payload)
        total = QueryStats()
        for _, reply in shard_replies:
            total.merge(reply.stats)
        results: list[list[Match]] = []
        n = self.count()
        for j, spec in enumerate(specs):
            merged = self._merge_candidates(shard_replies, j, n)
            survivors = [(c, p) for c, p in merged if p >= spec.tau]
            results.append(_global_matches(survivors))
        return results, total

    def run_ranked(
        self, specs
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer ``ConsensusTopK``/``ExpectedRank`` specs via the
        dedicated ``"ranked"`` fan-out payload.

        Each shard piggybacks the per-shard sufficient statistics the
        semantics need (candidate posteriors + ``log Z_s`` + its
        at-or-above-cutoff candidate mass); the coordinator merges to
        exact global posteriors, certifies the merge with
        :meth:`_check_ranked_stats`, and rescores the global prefix
        with the same pure functions the single-tree path uses — so the
        sharded answers are parity-identical to a single tree's.
        """
        self._require("mliq")
        from repro.engine.semantics import score_ranked

        results: list[list[Match]] = [[] for _ in specs]
        if self.count() == 0:
            return results, QueryStats()
        live = [(i, s) for i, s in enumerate(specs) if s.k > 0]
        if not live:
            return results, QueryStats()
        payload = ("ranked", [(s.q, s.k) for _, s in live])
        shard_replies = self._fan_out(payload)
        total = QueryStats()
        for _, reply in shard_replies:
            total.merge(reply.stats)
        n = self.count()
        for j, (i, spec) in enumerate(live):
            merged = self._merge_candidates(shard_replies, j, n)
            prefix = _global_matches(merged[: spec.k])
            self._check_ranked_stats(shard_replies, j, prefix)
            results[i] = score_ranked(spec, prefix)
        return results, total

    @staticmethod
    def _check_ranked_stats(
        shard_replies: list[tuple[int, ShardReply]],
        j: int,
        prefix: list[Match],
    ) -> None:
        """Certify query ``j``'s merge from the piggybacked statistics.

        Two invariants must hold for the global prefix to be exact:
        a shard's at-or-above-cutoff candidate mass cannot exceed its
        total density mass (``log_above <= log Z_s``), and a *truncated*
        shard's local cutoff cannot outrank the global cutoff while the
        shard fills the whole prefix by itself — that would mean an
        unreturned object could still displace a global answer, i.e.
        the containment lemma was violated. Either failure indicates a
        malformed shard reply (a faulty runner, a replica serving a
        different population) and raises :class:`ClusterError` rather
        than silently mis-ranking.
        """
        for shard_id, reply in shard_replies:
            if reply.aux is None:
                raise ClusterError(
                    f"shard {shard_id} answered a ranked payload without "
                    "its sufficient statistics"
                )
            matches, log_total = reply.per_query[j]
            n_s, log_above = reply.n_objects, reply.aux[j]
            if log_above > log_total + 1e-6:
                raise ClusterError(
                    f"shard {shard_id} reports more at-cutoff candidate "
                    f"mass ({log_above:.6f}) than total density mass "
                    f"({log_total:.6f}) over {n_s} object(s)"
                )
            if not prefix or not matches or len(matches) >= n_s:
                continue  # nothing truncated away on this shard
            if (
                len(matches) >= len(prefix)
                and matches[-1].log_density > prefix[-1].log_density
            ):
                raise ClusterError(
                    f"shard {shard_id}'s local cutoff outranks the "
                    "global cutoff with candidates truncated away — "
                    "the merged ranking would not be exact"
                )

    @staticmethod
    def _merge_candidates(
        shard_replies: list[tuple[int, ShardReply]], j: int, total_n: int
    ) -> list[tuple[Match | RowMatch, float]]:
        """Merge query ``j``'s shard answers into ``(candidate, global
        posterior)`` pairs, ordered by descending global posterior (ties
        broken by shard id then local rank, so merges are
        deterministic). Callers build matches (:func:`_global_matches`)
        only for the pairs they return."""
        log_z = logsumexp(
            [reply.per_query[j][1] for _, reply in shard_replies]
        )
        pool: list[tuple[float, int, int, Match | RowMatch]] = []
        for shard_id, reply in shard_replies:
            matches, _ = reply.per_query[j]
            for rank, m in enumerate(matches):
                pool.append((-m.log_density, shard_id, rank, m))
        pool.sort(key=lambda item: item[:3])
        merged: list[tuple[Match | RowMatch, float]] = []
        for neg_ld, _, _, m in pool:
            ld = -neg_ld
            if math.isfinite(log_z):
                probability = (
                    0.0 if math.isinf(ld) else min(1.0, math.exp(ld - log_z))
                )
            else:
                # Every shard's denominator underflowed: mirror the
                # scan's "maximally indifferent" uniform fallback.
                probability = 1.0 / max(1, total_n)
            merged.append((m, probability))
        return merged

    # -- the write router ----------------------------------------------------

    def _create_shard_index(self, shard_id: int, dims: int) -> None:
        """Materialize the index file of a shard that was empty at build
        time, the moment the first write routes to it.

        An empty shard has no dimensionality of its own (which is why
        ``build_shards`` records ``path=None``); the first routed vector
        supplies it. The file is named exactly as ``build_shards`` would
        have named it (``<prefix>.shard-NN.gauss``, next to the
        manifest, default page size) and the manifest entry gains the
        path, saved at once, so later sessions open the shard like any
        other.
        """
        from repro.cluster.partition import MANIFEST_SUFFIX, ShardInfo
        from repro.core.joint import SigmaRule
        from repro.gausstree.tree import GaussTree

        manifest = self.manifest
        assert manifest is not None and manifest.source_path is not None
        base = os.path.abspath(manifest.source_path)
        prefix = (
            base[: -len(MANIFEST_SUFFIX)]
            if base.endswith(MANIFEST_SUFFIX)
            else os.path.splitext(base)[0]
        )
        shard_path = f"{prefix}.shard-{shard_id:02d}.gauss"
        tree = GaussTree(
            dims=dims, sigma_rule=SigmaRule(manifest.sigma_rule)
        )
        tree.save(shard_path)
        # The opener shares this list, so its next call opens the file.
        self._sources[shard_id] = shard_path
        shards = list(manifest.shards)
        shards[shard_id] = ShardInfo(
            path=os.path.basename(shard_path), objects=0
        )
        self.manifest = dataclasses.replace(manifest, shards=tuple(shards))
        self._refresh_manifest()

    def _writable_session(
        self, shard_id: int, dims: int | None = None
    ) -> Session:
        """The writable child session owning one shard.

        ``dims`` is the dimensionality of the write being routed; a
        manifest-backed shard with no index file yet (empty at build
        time) lazily creates one from it instead of rejecting the write.
        """
        if self._sources[shard_id] is None:
            if (
                dims is not None
                and self.manifest is not None
                and self.manifest.source_path is not None
            ):
                self._create_shard_index(shard_id, dims)
            else:
                raise ClusterError(
                    f"cannot route a write to shard {shard_id}: the "
                    "deployment records no index file for it (the shard "
                    "was empty at build time) and no manifest path is "
                    "available to create one next to"
                )
        session = self._pool.session(shard_id)
        if not session.writable:
            raise ClusterError(
                f"shard {shard_id}'s inner backend {self.inner!r} is not "
                "writable; writable sharded sessions need inner='tree' "
                "or inner='disk'"
            )
        return session

    def _set_count(self, shard_id: int, count: int) -> None:
        """Track a shard's object count and its active/empty status."""
        before = self._counts[shard_id]
        self._counts[shard_id] = count
        if before == 0 and count > 0:
            bisect.insort(self._active, shard_id)
        elif before > 0 and count == 0:
            self._active.remove(shard_id)

    def insert_many(self, vectors) -> int:
        """Route a batch to its owning shards; each shard's slice is one
        group-commit transaction on disk-backed shards.

        Placement follows the deployment's policy: the stable key hash
        directly, round-robin by the placement epoch (each insert
        consumes one position, continuing the sequence the original
        partitioning started). The counts and the epoch advance in
        memory only; the shard commits log each shard's count in its
        header, and ``flush()``/``close()`` save the manifest.
        """
        self._require("writable")
        batch = list(vectors)
        by_shard: dict[int, list[PFV]] = {}
        position = self._placement_epoch
        for v in batch:
            shard_id = shard_of(v, position, self.n_shards, self.policy)
            position += 1
            by_shard.setdefault(shard_id, []).append(v)
        # Open (and vet) every target shard *before* committing any
        # slice: routing failures — a pathless shard, a non-writable
        # inner — must reject the batch whole, not after an earlier
        # shard already committed part of it. The epoch advances only
        # once routing is validated.
        sessions = {
            shard_id: self._writable_session(
                shard_id, dims=by_shard[shard_id][0].dims
            )
            for shard_id in sorted(by_shard)
        }
        self._placement_epoch = position
        committed = 0
        try:
            for shard_id, session in sessions.items():
                session.insert_many(by_shard[shard_id])
                self._set_count(
                    shard_id, self._counts[shard_id] + len(by_shard[shard_id])
                )
                committed += len(by_shard[shard_id])
        except Exception as exc:
            # A mid-batch IO failure is partial by nature (per-shard
            # WALs are independent); ship what landed and say so.
            self._ship_replicas(sessions)
            raise ClusterError(
                f"insert batch failed after {committed} of {len(batch)} "
                f"vectors committed (per-shard transactions are "
                f"independent): {exc}"
            ) from exc
        # Replicas catch up as soon as the shard WALs hold the commits,
        # so replica-routed readers (other read-only sessions) observe
        # this batch without waiting for a checkpoint.
        self._ship_replicas(sessions)
        return len(batch)

    def delete(self, v: PFV) -> bool:
        """Delete one pfv; returns whether it was found on any shard.

        Hash placement names the owning shard outright (re-observations
        share the key, the key fixes the shard); round-robin placement
        depends on historical insert order, so the delete probes every
        non-empty shard until one reports a hit.

        An absent key is a clean not-found: the probes return ``False``
        without touching any WAL (a tree-level miss never commits), a
        shard with no index file yet is skipped instead of failing the
        routing (a stale manifest can record a positive count for a
        never-materialised shard), and the replicas are not shipped to.
        A hit, like an insert, changes the counts in memory only.
        """
        self._require("writable")
        if self.policy == "hash":
            shard_id = shard_of(v, 0, self.n_shards, "hash")
            candidates = [shard_id] if self._counts[shard_id] > 0 else []
        else:
            candidates = list(self._active)
        for shard_id in candidates:
            if self._sources[shard_id] is None:
                # Nothing was ever written here; routing a delete
                # through _writable_session would raise ClusterError
                # for the missing index file.
                continue
            if self._writable_session(shard_id).delete(v):
                self._set_count(shard_id, self._counts[shard_id] - 1)
                self._ship_replicas([shard_id])
                return True
        return False

    def flush(self) -> None:
        """Checkpoint every writable shard session and save the
        manifest (no-op on read-only sessions).

        Replicas ship *before* each shard's checkpoint (the checkpoint
        resets the primary WAL, destroying the unshipped tail) and are
        marked current after it (``note_reset`` — the replicas already
        hold everything the checkpoint folded in, no resync needed).
        """
        if not self._writable:
            return
        for shard_id, source in enumerate(self._sources):
            if source is not None:
                shipper = self._shipper(shard_id)
                if shipper is not None:
                    shipper.ship()
                self._pool.session(shard_id).flush()
                if shipper is not None:
                    shipper.note_reset()
        self._refresh_manifest()

    def _refresh_manifest(self) -> None:
        """Persist the current per-shard counts and placement epoch back
        into the ``.shards.json`` manifest (writable manifest-backed
        deployments only; in-memory partitionings have nothing to
        refresh). Runs at ``flush()``, ``close()`` and shard index
        creation, never per write: the counts are hints for the next
        open, and the shard headers are the truth."""
        if (
            not self._writable
            or self.manifest is None
            or self.manifest.source_path is None
        ):
            return
        shards = tuple(
            ShardInfo(
                path=info.path,
                objects=self._counts[i],
                replicas=info.replicas,
            )
            for i, info in enumerate(self.manifest.shards)
        )
        manifest = dataclasses.replace(
            self.manifest,
            shards=shards,
            placement_epoch=self._placement_epoch,
        )
        manifest.save(self.manifest.source_path)
        self.manifest = manifest

    # -- metadata ------------------------------------------------------------

    def count(self) -> int:
        """Objects across all shards: a writer's own counts, or a
        reader's header counts, each replaced by the shard session's
        count once the shard has answered (no file IO)."""
        return sum(self._counts)

    def estimate(self, kind: str, specs) -> PlanEstimate:
        """Sum shard page estimates; price latency as the serial fan-out
        runs it, the sum over shards plus per-shard dispatch. A TIQ
        also pays, on every shard, the ``MLIQ(q, 1)`` denominator probe
        its payload adds per query."""
        if not self._active or not specs:
            return PlanEstimate(0, 0.0, "empty deployment: no shards hit")
        probes = (
            [MLIQ(spec.q, 1) for spec in specs] if kind == "tiq" else []
        )
        pages = 0
        cpu_seconds = 0.0
        branch_seconds: list[float] = []
        cost_model = None
        for shard_id in self._active:
            session = self._session_for(shard_id)
            estimates = [session._backend.estimate(kind, specs)]
            if probes:
                estimates.append(session._backend.estimate("mliq", probes))
            pages += sum(est.pages for est in estimates)
            cpu_seconds += sum(est.cpu_seconds for est in estimates)
            branch_seconds.append(sum(est.io_seconds for est in estimates))
            store = getattr(session._backend, "store", None)
            if cost_model is None and store is not None:
                cost_model = store.cost_model
        if cost_model is None:
            from repro.storage.costmodel import DiskCostModel

            cost_model = DiskCostModel()
        return PlanEstimate(
            pages,
            cost_model.fan_out_seconds(branch_seconds),
            f"fan-out to {len(self._active)} shard(s); latency priced as "
            "sum over shards (serial fan-out) plus per-shard dispatch",
            cpu_seconds,
        )

    def plan_lowering(self, kinds) -> tuple[str, ...]:
        """Extra lowering lines for ``Session.explain`` (planner hook)."""
        steps = [
            f"fan-out: {len(self._active)} of {self.n_shards} shard(s) "
            f"via serial fan-out, inner backend {self.inner!r}",
            "merge: renormalise posteriors against the global Bayes "
            "denominator (logsumexp of per-shard totals)",
        ]
        if "tiq" in kinds:
            steps.append(
                "tiq: per-shard TIQ(tau) superset + MLIQ(q, 1) "
                "denominator probe per query"
            )
        if "consensus" in kinds or "erank" in kinds:
            steps.append(
                "ranked: shards piggyback sufficient statistics "
                "(log Z_s + at-cutoff candidate mass) so global "
                "consensus/expected-rank scores are exact"
            )
        return tuple(steps)

    def database(self) -> PFVDatabase:
        """Materialise every shard's objects as one database."""
        merged: PFVDatabase | None = None
        for shard_id in self._active:
            shard_db = self._session_for(shard_id).database()
            if merged is None:
                merged = PFVDatabase(sigma_rule=shard_db.sigma_rule)
            merged.extend(shard_db)
        return merged if merged is not None else PFVDatabase()

    def cold_start(self) -> None:
        """Drop the page cache of every shard session the fan-out
        reads."""
        for shard_id in self._active:
            self._session_for(shard_id).cold_start()

    def close(self) -> None:
        """Persist the final manifest counts and epoch (writable
        sessions), then release every shard session (writable ones
        checkpoint)."""
        if self._closed:
            return
        self._closed = True
        self._refresh_manifest()
        self._pool.close()

    def __repr__(self) -> str:
        return f"<ShardedBackend {self.name!r} n={self.count()}>"


# ---------------------------------------------------------------------------
# Factory + registration
# ---------------------------------------------------------------------------


def _looks_like_manifest(source) -> bool:
    return isinstance(source, (str, os.PathLike)) and os.fspath(
        source
    ).endswith((MANIFEST_SUFFIX, ".json"))


def _make_sharded(source, *, writable: bool, options: dict) -> ShardedBackend:
    """Factory behind ``connect(..., backend="sharded")``: resolves the
    manifest / in-memory partitioning and the inner backend, and
    (``writable=True``) arms the write router."""
    inner = options.pop("inner", None)
    policy = options.pop("policy", None)
    inner_options = dict(options.pop("inner_options", None) or {})
    shards_requested = options.pop("shards", None)
    if options:
        raise TypeError(
            f"the 'sharded' backend does not understand options "
            f"{sorted(options)}"
        )

    manifest: ShardManifest | None = None
    if isinstance(source, ShardManifest):
        manifest = source
    elif _looks_like_manifest(source):
        manifest = load_manifest(source)

    if manifest is not None:
        # The manifest *is* the partitioning; shards=/policy= would be
        # silently ignored, so make the contradiction loud.
        if shards_requested is not None or policy is not None:
            raise TypeError(
                "shards=/policy= describe in-memory partitioning and "
                "conflict with a manifest source (the manifest fixes "
                f"{manifest.n_shards} shards, policy "
                f"{manifest.policy!r}); re-run `repro shard-build` to "
                "re-partition"
            )
        inner = inner or "disk"
        sources = manifest.shard_paths()
        missing = [
            p
            for p, info in zip(sources, manifest.shards)
            if info.objects > 0 and (p is None or not os.path.exists(p))
        ]
        if missing:
            raise ClusterError(
                "shard manifest references missing index file(s): "
                + ", ".join(str(p) for p in missing)
                + " — re-run `repro shard-build` or fix the manifest"
            )
        counts = [info.objects for info in manifest.shards]
        route_policy = manifest.policy
        placement_epoch = manifest.effective_placement_epoch
        replicas = manifest.replica_paths()
    else:
        if shards_requested is None:
            raise TypeError(
                "sharding an in-memory source needs shards=N "
                "(or connect to a `repro shard-build` manifest)"
            )
        if shards_requested < 1:
            raise ValueError(
                f"shards must be >= 1, got {shards_requested}"
            )
        inner = inner or "tree"
        if inner == "disk":
            raise TypeError(
                "inner backend 'disk' needs shard index files; build them "
                "with `repro shard-build` and connect to the manifest"
            )
        db = as_database(source)
        route_policy = policy or "hash"
        parts = partition_database(db, shards_requested, route_policy)
        sources = list(parts)
        counts = [len(p) for p in parts]
        placement_epoch = len(db)
        replicas = None  # in-memory shards have no replica files

    # Tighten the Gauss-tree's posterior tolerance below the merge's
    # cross-shard agreement budget unless the caller chose their own.
    if inner in ("tree", "disk"):
        inner_options.setdefault("mliq_tolerance", 1e-12)

    return ShardedBackend(
        sources,
        counts,
        inner=inner,
        inner_options=inner_options,
        manifest=manifest,
        writable=writable,
        policy=route_policy,
        placement_epoch=placement_epoch,
        replicas=replicas,
    )


register_backend(
    "sharded",
    _make_sharded,
    "fan-out over N shard sessions (manifest or shards=N) with exact "
    "global posterior renormalisation; writable=True adds "
    "placement-routed writes",
)
