"""The serving tier: pipelined JSONL + HTTP/1.1 over a session pool.

One event loop owns every connection; query execution runs on a small
``ThreadPoolExecutor`` with exactly one worker per pool session, so the
thread count is fixed at startup no matter how many clients connect —
concurrency is bounded by :class:`~repro.serve.admission.AdmissionQueue`
(429 + ``Retry-After`` beyond the bound), never by thread exhaustion.

Two protocols share each listening socket, sniffed per connection from
the first line:

* **Pipelined JSONL** (lines starting with ``{``): one request envelope
  per line — ``{"op": "query", "id": 7, "queries": [spec, ...]}`` — with
  responses echoing ``id`` and possibly arriving out of order, so a
  client may keep many requests in flight on one keep-alive connection.
* **HTTP/1.1** (anything else): the endpoint contract of
  ``docs/wire-protocol.md`` (``POST /query``, ``POST /insert``, ``POST
  /delete``, ``GET /healthz``, ``GET /stats``, ``GET /metrics``), spoken
  by the stdlib :class:`~repro.cluster.client.ServeClient`. Requests
  on one HTTP connection are answered in order (responses to *different*
  connections interleave freely).

The dispatcher implements **request coalescing**: it first waits for a
free pool session, then collects a round-robin batch of queued read
requests (plus a ``max_delay`` window for stragglers) and fuses them
into one ``execute_many`` call — concurrent singleton clients reach the
engine's batch entry points without batching client-side: a batch's
queries share the warm buffer and decoded pages, the leaf directory and
one sweep finish, while each traversal stays the query's own. Results demultiplex back per request. Concurrent
``insert`` requests coalesce the same way into one ``insert_many`` —
a single group-commit WAL transaction whose one fsync is shared by
every client acked from it. ``delete`` requests (the serving half of
the ReID track-churn workload) take the same write path: they serialize
on pool slot 0, coalesce into one flushed batch, and a vector absent
from the index answers cleanly with a lower ``deleted`` count — never
an error. Waiting for the session *before* forming
the batch is what makes batch size track load: while every session is
busy the queues grow, so the next batch is bigger exactly when
fusing pays most.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Sequence

from repro.cluster.wire import (
    WireError,
    pfv_from_json,
    request_from_json,
    response_to_json,
    result_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.engine.session import Session
from repro.engine.spec import is_write_spec
from repro.obs.metrics import (
    CONTENT_TYPE,
    SIZE_BUCKETS,
    MetricsRegistry,
    get_global_registry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs import trace as obs_trace
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionError,
    AdmissionQueue,
)
from repro.serve.coalesce import CoalesceConfig

__all__ = ["AsyncQueryServer", "serve_async"]

#: Longest accepted JSONL request line / HTTP header line. Also the
#: asyncio stream reader's buffer limit.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Refuse HTTP request bodies above this size (64 MiB) — a malformed
#: client should get a 413, not an allocation storm.
MAX_BODY_BYTES = 64 * 1024 * 1024

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: The span each op's batch gets in a member's trace, between
#: ``admission.wait`` and the engine's own spans.
_EXECUTE_SPANS = {
    "query": "serve.execute",
    "insert": "serve.insert",
    "delete": "serve.delete",
}


class ServingStats:
    """Every serving counter, in one store: ``GET /stats`` snapshots it
    and the counter series of ``GET /metrics`` read it through
    callbacks, so the two views cannot disagree and ``/stats`` keeps
    counting under a :class:`~repro.obs.metrics.NullRegistry`. The
    event loop records; the lock keeps a snapshot taken from another
    thread consistent."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.batches = 0
        self.queries = 0
        self.by_kind: dict[str, int] = {}
        self.coalesced_reads = 0
        self.errors = 0
        self.inserts = 0
        self.insert_batches = 0
        self.coalesced_inserts = 0
        self.deletes = 0
        self.delete_batches = 0
        self.pages_accessed = 0
        self.objects_refined = 0
        self.swept = 0
        self.execute_seconds = 0.0

    def record(self, op: str, items: list, elapsed: float, outcome) -> None:
        """Count one executed batch of ``items``: ``outcome`` is a
        read's :class:`~repro.engine.result.ResultSet`, or a write's
        per-member changed counts and the index size."""
        fused = len(items) > 1
        with self._lock:
            self.execute_seconds += elapsed
            if op == "query":
                self.batches += 1
                for it in items:
                    self.queries += len(it.specs)
                    for spec in it.specs:
                        self.by_kind[spec.kind] = (
                            self.by_kind.get(spec.kind, 0) + 1
                        )
                self.pages_accessed += outcome.stats.pages_accessed
                self.objects_refined += outcome.stats.objects_refined
                self.swept += outcome.stats.swept
                if fused:
                    self.coalesced_reads += len(items)
                return
            changed = sum(outcome[0])
            if op == "insert":
                self.insert_batches += 1
                self.inserts += changed
                if fused:
                    self.coalesced_inserts += changed
            else:
                self.delete_batches += 1
                self.deletes += changed

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def snapshot(self) -> dict:
        """The ``/stats`` counters (the server adds the pool, admission
        and coalescing-config views)."""
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "batches": self.batches,
                "queries": self.queries,
                "queries_by_kind": dict(self.by_kind),
                "errors": self.errors,
                "inserts": self.inserts,
                "insert_batches": self.insert_batches,
                "deletes": self.deletes,
                "delete_batches": self.delete_batches,
                "pages_accessed": self.pages_accessed,
                "objects_refined": self.objects_refined,
                "swept": self.swept,
                "execute_seconds": round(self.execute_seconds, 4),
                "coalescing": {
                    "read_batches": self.batches,
                    "coalesced_reads": self.coalesced_reads,
                    "write_batches": self.insert_batches
                    + self.delete_batches,
                    "coalesced_inserts": self.coalesced_inserts,
                },
            }


class _Pending:
    """One admitted request waiting in the queue.

    ``respond`` is a coroutine function ``(status, payload) -> None``
    bound to the originating connection/protocol; the batch that serves
    the request calls it on the event loop. ``weight`` is the number of
    engine operations the request contributes to a coalesced batch.
    ``trace`` is the request's :class:`~repro.obs.trace.Trace` when the
    client asked for one; ``enqueued_at`` feeds the admission-wait
    histogram and the trace's ``admission.wait`` span.
    """

    __slots__ = ("op", "specs", "vectors", "respond", "done", "trace",
                 "enqueued_at")

    def __init__(self, op, specs=None, vectors=None, respond=None,
                 trace=None):
        self.op = op
        self.specs = specs
        self.vectors = vectors
        self.respond = respond
        self.done: asyncio.Future | None = None
        self.trace = trace
        self.enqueued_at = time.perf_counter()

    @property
    def weight(self) -> int:
        if self.op == "query":
            return max(1, len(self.specs))
        return max(1, len(self.vectors))


class AsyncQueryServer:
    """The asyncio serving endpoint (see the module docstring).

    ``session`` is pool slot 0 and takes every write; ``session_factory``
    opens the ``pool_size - 1`` read replicas at start (required when
    ``pool_size > 1``). ``port=0`` binds an ephemeral port, readable
    from :attr:`address` once serving. ``admission`` bounds the request
    queues and ``coalesce`` sets the batching window (``repro serve``
    surfaces both). ``drain_timeout`` caps how long :meth:`shutdown`
    waits for admitted requests to finish. A server serves once: after
    :meth:`shutdown` it cannot be restarted.

    Observability (``docs/observability.md``): ``registry`` is the
    server's private :class:`~repro.obs.metrics.MetricsRegistry`
    (defaults to a fresh one; pass a
    :class:`~repro.obs.metrics.NullRegistry` to disable serving-tier
    instrumentation). ``GET /metrics`` renders it concatenated with the
    process-global registry. ``slow_query_log`` (a path or an open
    :class:`~repro.obs.slowlog.SlowQueryLog`) captures requests slower
    than ``slow_query_ms`` end to end, each entry carrying the specs,
    the span tree and the ``explain()`` plan.
    """

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 8631,
        *,
        session_factory: Callable[[], Session] | None = None,
        pool_size: int = 1,
        admission: AdmissionConfig | None = None,
        coalesce: CoalesceConfig | None = None,
        drain_timeout: float = 10.0,
        registry: MetricsRegistry | None = None,
        slow_query_log: SlowQueryLog | str | None = None,
        slow_query_ms: float = 250.0,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if pool_size > 1 and session_factory is None:
            raise ValueError(
                "pool_size > 1 needs a session_factory to open the "
                "replica sessions"
            )
        self.session = session
        self.host = host
        self.port = port
        self.session_factory = session_factory
        self.pool_size = pool_size
        self.admission_config = admission or AdmissionConfig()
        self.coalesce = coalesce or CoalesceConfig()
        self.drain_timeout = drain_timeout
        self.stats = ServingStats()
        self.registry = registry if registry is not None else MetricsRegistry()
        if isinstance(slow_query_log, SlowQueryLog):
            self.slow_log: SlowQueryLog | None = slow_query_log
            self._owns_slow_log = False
        elif slow_query_log is not None:
            self.slow_log = SlowQueryLog(
                slow_query_log, threshold_ms=slow_query_ms
            )
            self._owns_slow_log = True
        else:
            self.slow_log = None
            self._owns_slow_log = False
        # The histograms live only in the registry. Every counter series
        # is a callback over state that counts itself (ServingStats,
        # admission queue, session pool), registered in _main() once
        # that state exists.
        m = self.registry
        self._m_batch_size = m.histogram(
            "repro_serve_batch_size",
            "Engine operations fused into one coalesced batch.",
            buckets=SIZE_BUCKETS,
        )
        self._m_admission_wait = m.histogram(
            "repro_serve_admission_wait_seconds",
            "Queue wait between admission and batch dispatch.",
        )
        self._m_execute = m.histogram(
            "repro_serve_execute_seconds",
            "Engine wall time per dispatched batch.",
        )
        self._m_demux = m.histogram(
            "repro_serve_demux_fanout",
            "Requests demultiplexed from one batch's results.",
            buckets=SIZE_BUCKETS,
        )
        # Runtime state, created on the event loop in _main().
        self._sessions: list[Session] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._admission: AdmissionQueue | None = None
        self._bound: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._stop_requested = threading.Event()
        self._drained = threading.Event()

    # -- public lifecycle ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (serve first)."""
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound endpoint (the HTTP shim
        accepts ServeClient there; JSONL clients use :attr:`address`)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_in_background(self) -> "AsyncQueryServer":
        """Run the event loop in a daemon thread; returns once the
        listening socket is bound (``repro serve``, tests, embedding)."""
        if self._thread is not None:
            raise RuntimeError("server is already started")
        if self._stop_requested.is_set():
            # The drain closed the replica sessions and the stop flag
            # stays set, so a second run would bind, drain at once and
            # serve nothing; fail loudly instead.
            raise RuntimeError(
                "server was shut down and cannot restart; create a new "
                "AsyncQueryServer"
            )
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-async", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._start_error is not None:
            raise RuntimeError(
                f"async server failed to start: {self._start_error}"
            ) from self._start_error
        if not self._started.is_set():
            raise RuntimeError("async server did not start within 30s")
        return self

    def shutdown(self) -> None:
        """Graceful drain: stop admitting (new requests answer 503),
        finish every admitted request, close connections and replica
        sessions, stop the loop. Idempotent; thread-safe."""
        self._stop_requested.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._kick)
            self._drained.wait(timeout=self.drain_timeout + 10)
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10)
            self._thread = None

    def __enter__(self) -> "AsyncQueryServer":
        if self._thread is None:
            self.serve_in_background()
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- event-loop main -----------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface to serve_in_background
            if not self._started.is_set():
                self._start_error = exc
                self._started.set()
        finally:
            self._drained.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._admission = AdmissionQueue(self.admission_config)
        self._conns: set[asyncio.StreamWriter] = set()
        self._inflight: set[asyncio.Task] = set()
        self._client_ids = itertools.count(1)
        # Pool bookkeeping lives in asyncio-land; the executor has one
        # worker per session so a checked-out slot always has a thread.
        self._sessions = [self.session]
        if self.pool_size > 1:
            self._sessions += [
                self.session_factory() for _ in range(self.pool_size - 1)
            ]
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="repro-serve"
        )
        self._free_slots = set(range(self.pool_size))
        self._slot_cond = asyncio.Condition()
        self._pool_acquires = 0
        self._pool_waits = 0
        self._pool_peak = 0
        self._per_slot_batches = [0] * self.pool_size
        self._version = 0
        self._slot_versions = [0] * self.pool_size
        self._register_callback_metrics()

        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._started.set()
        try:
            while not self._stop_requested.is_set():
                self._wake.clear()
                if self._stop_requested.is_set():
                    break
                await self._wake.wait()
        finally:
            await self._drain(dispatcher)

    def _kick(self) -> None:
        """Wake both the main waiter and the dispatcher (loop-side)."""
        self._wake.set()

    def _register_callback_metrics(self) -> None:
        """Install callback-backed series over state that already counts
        itself (admission queue, session pool, ServingStats) — the
        registry reads the single source of truth at scrape time."""
        m = self.registry
        adm = self._admission
        m.gauge(
            "repro_serve_queue_depth",
            "Admitted requests currently queued.",
            callback=lambda: adm.pending,
        )
        m.gauge(
            "repro_serve_queue_depth_peak",
            "High-water mark of the admission queue.",
            callback=lambda: adm.peak_pending,
        )
        m.counter(
            "repro_serve_admitted_total",
            "Requests accepted by admission control.",
            callback=lambda: adm.admitted,
        )
        m.counter(
            "repro_serve_shed_total",
            "Requests rejected by admission control (429 + 503).",
            callback=lambda: adm.rejected + adm.rejected_draining,
        )
        m.counter(
            "repro_serve_clients_total",
            "Distinct client queues seen since start.",
            callback=lambda: adm.clients_seen,
        )
        m.gauge(
            "repro_serve_pool_size",
            "Pool sessions (one executor thread each).",
        ).set(self.pool_size)
        m.gauge(
            "repro_serve_pool_in_use",
            "Pool sessions currently checked out.",
            callback=lambda: self.pool_size - len(self._free_slots),
        )
        m.counter(
            "repro_serve_pool_acquires_total",
            "Pool slot acquisitions.",
            callback=lambda: self._pool_acquires,
        )
        m.counter(
            "repro_serve_pool_waits_total",
            "Slot acquisitions that had to wait for a busy pool.",
            callback=lambda: self._pool_waits,
        )
        s = self.stats
        for name, help_text, read in (
            ("repro_serve_read_batches_total",
             "execute_many batches dispatched for coalesced reads.",
             lambda: s.batches),
            ("repro_serve_coalesced_reads_total",
             "Read requests answered from a multi-request batch.",
             lambda: s.coalesced_reads),
            ("repro_serve_write_batches_total",
             "Insert and delete batches dispatched on the primary.",
             lambda: s.insert_batches + s.delete_batches),
            ("repro_serve_coalesced_inserts_total",
             "Vectors committed from multi-request insert batches.",
             lambda: s.coalesced_inserts),
            ("repro_serve_queries_total",
             "Query specs executed (batch members counted singly).",
             lambda: s.queries),
            ("repro_serve_swept_total",
             "Gauss-tree k-MLIQs (per shard) answered by a sweep of the "
             "leaf directory instead of a traversal.",
             lambda: s.swept),
            ("repro_serve_inserts_total", "Vectors inserted.",
             lambda: s.inserts),
            ("repro_serve_deletes_total",
             "Vectors deleted (found-and-removed, misses excluded).",
             lambda: s.deletes),
            ("repro_serve_errors_total",
             "Requests answered with a non-shed 4xx/5xx status.",
             lambda: s.errors),
        ):
            m.counter(name, help_text, callback=read)

    async def _drain(self, dispatcher: asyncio.Task) -> None:
        self._admission.begin_drain()
        self._server.close()
        self._wake.set()
        deadline = self._loop.time() + self.drain_timeout
        while (
            self._admission.pending or self._inflight
        ) and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        dispatcher.cancel()
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._conns):
            writer.close()
        await self._server.wait_closed()
        self._executor.shutdown(wait=False)
        for session in self._sessions[1:]:
            try:
                session.close()
            except Exception:
                pass
        if self._owns_slow_log and self.slow_log is not None:
            self.slow_log.close()

    # -- pool slots ----------------------------------------------------------

    async def _acquire_slot(self, slot: int | None) -> int:
        async with self._slot_cond:
            self._pool_acquires += 1

            def available() -> bool:
                if slot is not None:
                    return slot in self._free_slots
                return bool(self._free_slots)

            if not available():
                self._pool_waits += 1
                await self._slot_cond.wait_for(available)
            taken = slot if slot is not None else min(self._free_slots)
            self._free_slots.discard(taken)
            in_use = self.pool_size - len(self._free_slots)
            self._pool_peak = max(self._pool_peak, in_use)
            self._per_slot_batches[taken] += 1
            return taken

    async def _release_slot(self, slot: int) -> None:
        async with self._slot_cond:
            self._free_slots.add(slot)
            self._slot_cond.notify_all()

    def _pool_snapshot(self) -> dict:
        return {
            "size": self.pool_size,
            "in_use": self.pool_size - len(self._free_slots),
            "peak_in_use": self._pool_peak,
            "acquires": self._pool_acquires,
            "waits": self._pool_waits,
            "batches_per_session": list(self._per_slot_batches),
        }

    # -- dispatcher: slot first, then the batch ------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            head = self._admission.peek()
            if head is None:
                if self._admission.draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            want_write = head.op in ("insert", "delete")
            if want_write and 0 not in self._free_slots:
                # Writes serialize on slot 0; while it is busy, don't
                # head-of-line-block reads that a free replica could
                # serve right now.
                if self._free_slots and self._admission.has(
                    lambda it: it.op == "query"
                ):
                    want_write = False
            slot = await self._acquire_slot(0 if want_write else None)
            op = head.op if want_write else "query"
            items = self._collect(op)
            if (
                items
                and sum(it.weight for it in items) < self.coalesce.max_batch
                and self.coalesce.max_delay_seconds > 0
                and not self._admission.draining
            ):
                # The batching window: hold the session briefly for
                # stragglers so near-simultaneous singletons fuse.
                await asyncio.sleep(self.coalesce.max_delay_seconds)
                items += self._collect(op, already=items)
            if not items:
                await self._release_slot(slot)
                continue
            task = asyncio.ensure_future(self._run_batch(slot, op, items))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    def _collect(self, op: str, already: Sequence[_Pending] = ()) -> list:
        """Dequeue queued ``op`` requests, fairly, until the batch holds
        ``max_batch`` engine operations (``max_batch=1``: one request,
        so nothing fuses)."""
        room = self.coalesce.max_batch - sum(it.weight for it in already)
        return self._admission.take_run(
            lambda it: it.op == op, room, weight=lambda it: it.weight
        )

    # -- batch execution -----------------------------------------------------

    async def _run_batch(self, slot: int, op: str, items: list) -> None:
        """Execute one coalesced batch on ``slot`` and answer every member.

        Reads, inserts and deletes share this path; only the engine call
        (:meth:`_engine_call`) and each member's response body
        (:meth:`_member_bodies`) differ per op.
        """
        dispatched = time.perf_counter()
        width = sum(it.weight for it in items)
        self._m_batch_size.observe(width)
        for it in items:
            self._m_admission_wait.observe(dispatched - it.enqueued_at)
        # One batch trace serves every traced member: the engine runs
        # once for the whole batch, so its spans are genuinely shared —
        # each traced request gets them grafted under its own root,
        # shifted into request-relative time.
        traced = any(it.trace is not None for it in items)
        batch_trace = obs_trace.Trace(epoch=dispatched) if traced else None
        slow = self.slow_log if op == "query" else None

        def run(session: Session):
            # run_in_executor does not propagate contextvars, so the
            # trace activates here, on the executor thread, covering
            # the whole synchronous engine path (down to wal.commit).
            t0 = time.perf_counter()
            with obs_trace.tracing(batch_trace):
                outcome = self._engine_call(session, op, items)
            spent = time.perf_counter() - t0
            plan = None
            if slow is not None and spent >= slow.threshold_seconds:
                # The batch is already over threshold: price the plan
                # now, while this thread still holds the slot, so the
                # slow-log entry can compare estimate vs observed.
                try:
                    plan = session.explain(
                        [s for it in items for s in it.specs]
                    ).describe()
                except Exception:
                    plan = None
            return outcome, spent, plan

        try:
            session = await self._slot_session(slot)
            outcome, elapsed, plan = await self._loop.run_in_executor(
                self._executor, run, session
            )
        except asyncio.CancelledError:
            await self._release_slot(slot)
            raise
        except Exception as exc:
            await self._release_slot(slot)
            message = f"{type(exc).__name__}: {exc}"
            for it in items:
                await self._answer(
                    it.respond, it.done, 500, {"error": message}
                )
            return
        if op != "query" and self.pool_size > 1 and any(outcome[0]):
            # Replica slots refresh before their next read.
            self._version += 1
            self._slot_versions[0] = self._version
        await self._release_slot(slot)
        self.stats.record(op, items, elapsed, outcome)
        self._m_execute.observe(elapsed)
        self._m_demux.observe(len(items))
        bodies = self._member_bodies(op, items, outcome)
        for it, body in zip(items, bodies):
            # Writes are acked only here, after the shared fsync.
            body["execute_seconds"] = round(elapsed, 6)
            body["coalesced"] = len(items)
            trace_dict = self._finish_item_trace(
                it, dispatched, elapsed, batch_trace, width,
                _EXECUTE_SPANS[op],
            )
            if trace_dict is not None:
                body["trace"] = trace_dict
            if slow is not None:
                slow.maybe_log(
                    dispatched - it.enqueued_at + elapsed,
                    queries=[spec_to_json(s) for s in it.specs],
                    trace=trace_dict,
                    plan=plan,
                    stats=body["stats"],
                    source="serve-async",
                )
            await self._answer(it.respond, it.done, 200, body)

    def _engine_call(self, session: Session, op: str, items: list):
        """One batch's engine work, on the executor thread. A read
        returns its ResultSet; a write returns each member's count of
        changed vectors and the index size after the write."""
        if op == "query":
            return session.execute_many([s for it in items for s in it.specs])
        if op == "insert":
            # One insert_many = one group-commit WAL transaction per
            # touched index: every coalesced client shares its fsync.
            session.insert_many([v for it in items for v in it.vectors])
            counts = [len(it.vectors) for it in items]
        else:
            # A vector absent from the index is a clean miss (False
            # from Session.delete, no WAL commit), so a batch never
            # fails on stale client state; it reports a lower count.
            counts = [
                sum(1 for v in it.vectors if session.delete(v))
                for it in items
            ]
        if self.pool_size > 1 and any(counts):
            session.flush()
        return counts, len(session)

    @staticmethod
    def _member_bodies(op: str, items: list, outcome) -> list[dict]:
        """Each member's response body, before the fields every op
        shares (``execute_seconds``, ``coalesced``, ``trace``)."""
        if op == "insert":
            counts, objects = outcome
            return [{"inserted": n, "objects": objects} for n in counts]
        if op == "delete":
            counts, objects = outcome
            return [
                {"deleted": n, "requested": len(it.vectors),
                 "objects": objects}
                for it, n in zip(items, counts)
            ]
        payload = result_to_json(outcome)
        bodies = []
        offset = 0
        for it in items:
            n = len(it.specs)
            body = {
                "backend": payload["backend"],
                "n_queries": n,
                "results": payload["results"][offset : offset + n],
                # Stats are the *batch's* merged counters: work shared
                # by every request coalesced into this execute_many.
                "stats": payload["stats"],
            }
            if payload.get("provenance") is not None:
                body["provenance"] = payload["provenance"]
            bodies.append(body)
            offset += n
        return bodies

    def _finish_item_trace(
        self,
        it: _Pending,
        dispatched: float,
        elapsed: float,
        batch_trace: "obs_trace.Trace | None",
        batch_width: int,
        execute_name: str,
    ) -> dict | None:
        """Assemble one request's span tree from the shared batch trace.

        The tree is request-relative: ``request`` spans admission to
        response, ``admission.wait`` covers the queue, and the engine's
        spans (recorded against the batch epoch == dispatch time) graft
        under the execute span shifted by this request's own wait.
        """
        if it.trace is None:
            return None
        wait = dispatched - it.enqueued_at
        # The engine spans are batch-epoch relative and include the
        # dispatch -> executor-thread scheduling gap, which `elapsed`
        # (measured around the engine call alone) does not; widen the
        # execute window so children never overhang their parent.
        span_end = elapsed
        if batch_trace is not None:
            span_end = max(
                span_end,
                max(
                    (s.start + s.dur for s in batch_trace.spans),
                    default=0.0,
                ),
            )
        root = obs_trace.Span("request", 0.0, wait + span_end)
        root.children.append(obs_trace.Span("admission.wait", 0.0, wait))
        execute = obs_trace.Span(
            execute_name, wait, span_end, count=batch_width
        )
        if batch_trace is not None:
            execute.children = [s.shifted(wait) for s in batch_trace.spans]
        root.children.append(execute)
        it.trace.spans = [root]
        return it.trace.to_dict()

    async def _slot_session(self, slot: int) -> Session:
        """The slot's session, refreshed first if it predates the last
        accepted write (read-your-writes through every slot; slot 0, the
        primary that takes every write, is never stale)."""
        if (
            slot != 0
            and self.session_factory is not None
            and self._slot_versions[slot] < self._version
        ):
            target = self._version
            try:
                fresh = await self._loop.run_in_executor(
                    self._executor, self.session_factory
                )
            except Exception:
                # Keep serving the (slightly stale) old session; the
                # slot stays marked stale so the next batch retries.
                return self._sessions[slot]
            old, self._sessions[slot] = self._sessions[slot], fresh
            self._slot_versions[slot] = target
            try:
                old.close()
            except Exception:
                pass
        return self._sessions[slot]

    async def _answer(
        self, respond, done: asyncio.Future | None, status: int, payload: dict
    ) -> None:
        """Send one response (batch members and inline replies alike):
        count a non-shed error, then release an HTTP connection waiting
        on ``done``."""
        if status >= 400 and status not in (429, 503):
            self.stats.record_error()
        try:
            await respond(status, payload)
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away; the work is done regardless
        if done is not None and not done.done():
            done.set_result(None)

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client_id = next(self._client_ids)
        write_lock = asyncio.Lock()
        self._conns.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._write_jsonl(
                        writer,
                        write_lock,
                        response_to_json(
                            None,
                            400,
                            {"error": "request line over limit"},
                        ),
                    )
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"{"):
                    await self._handle_jsonl(
                        stripped, client_id, writer, write_lock
                    )
                else:
                    keep = await self._handle_http(
                        stripped, reader, writer, write_lock
                    )
                    if not keep:
                        break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # Drain cancels handlers after admitted work finished; exit
            # cleanly so loop shutdown doesn't log phantom errors.
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- JSONL protocol ------------------------------------------------------

    async def _write_jsonl(self, writer, lock, obj: dict) -> None:
        data = json.dumps(obj).encode("utf-8") + b"\n"
        async with lock:
            writer.write(data)
            await writer.drain()

    async def _handle_jsonl(
        self, line: bytes, client_id, writer, lock
    ) -> None:
        try:
            data = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._write_jsonl(
                writer,
                lock,
                response_to_json(
                    None, 400, {"error": f"request is not JSON: {exc}"}
                ),
            )
            return
        try:
            rid, op, payload = request_from_json(data)
        except WireError as exc:
            await self._write_jsonl(
                writer,
                lock,
                response_to_json(data.get("id") if isinstance(data, dict)
                                 else None, 400, {"error": str(exc)}),
            )
            return

        async def respond(status: int, body: dict) -> None:
            await self._write_jsonl(
                writer, lock, response_to_json(rid, status, body)
            )

        await self._submit(client_id, op, payload, respond)

    # -- HTTP/1.1 shim -------------------------------------------------------

    async def _write_http(
        self, writer, lock, status: int, payload: dict | str
    ) -> None:
        """One HTTP response: a dict goes out as JSON, a str as the
        Prometheus text exposition (``GET /metrics``)."""
        content_type, retry_after = CONTENT_TYPE, None
        if isinstance(payload, dict):
            content_type = "application/json"
            retry_after = payload.get("retry_after")
            payload = json.dumps(payload)
        body = payload.encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: keep-alive",
        ]
        if retry_after is not None:
            headers.append(f"Retry-After: {retry_after}")
        head = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
        async with lock:
            writer.write(head + body)
            await writer.drain()

    async def _handle_http(
        self, request_line: bytes, reader, writer, lock
    ) -> bool:
        """Serve one HTTP request; returns False to close the connection."""
        try:
            parts = request_line.decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (UnicodeDecodeError, IndexError):
            await self._write_http(
                writer, lock, 400, {"error": "malformed request line"}
            )
            return False
        headers: dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            await self._write_http(
                writer, lock, 400, {"error": "bad Content-Length"}
            )
            return False
        if length > MAX_BODY_BYTES:
            await self._write_http(
                writer,
                lock,
                413,
                {"error": f"request body over {MAX_BODY_BYTES} bytes"},
            )
            return False
        body = await reader.readexactly(length) if length > 0 else b""

        if (method, path) == ("GET", "/metrics"):
            await self._write_http(writer, lock, 200, self.metrics_text())
            return headers.get("connection", "").lower() != "close"

        op = {
            ("GET", "/healthz"): "healthz",
            ("GET", "/stats"): "stats",
            ("POST", "/query"): "query",
            ("POST", "/insert"): "insert",
            ("POST", "/delete"): "delete",
        }.get((method, path))
        if op is None:
            await self._write_http(
                writer, lock, 404, {"error": f"unknown path {path!r}"}
            )
            return headers.get("connection", "").lower() != "close"
        if op in ("query", "insert", "delete"):
            if not body:
                await self._write_http(
                    writer, lock, 400, {"error": "empty request body"}
                )
                return False
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                await self._write_http(
                    writer,
                    lock,
                    400,
                    {"error": f"request body is not JSON: {exc}"},
                )
                return False
            if not isinstance(payload, dict):
                await self._write_http(
                    writer,
                    lock,
                    400,
                    {"error": "request body must be a JSON object, got "
                     f"{type(payload).__name__}"},
                )
                return headers.get("connection", "").lower() != "close"
        else:
            payload = {}
        # X-Repro-Trace asks for a traced request (the header's value
        # becomes the trace ID); a "trace" field in the body wins.
        trace_header = headers.get("x-repro-trace")
        if trace_header and "trace" not in payload:
            payload["trace"] = trace_header

        # HTTP pipelining requires in-order responses: serve one request
        # at a time per connection (coalescing happens across
        # connections, matching how ServeClient opens them). The answer
        # resolves `done`, whichever path sends it.
        done: asyncio.Future = self._loop.create_future()
        await self._submit(
            f"http-{id(writer)}", op, payload,
            functools.partial(self._write_http, writer, lock), done=done,
        )
        await done
        return headers.get("connection", "").lower() != "close"

    # -- request routing (shared by both protocols) --------------------------

    async def _submit(
        self,
        client_id,
        op: str,
        payload: dict,
        respond: Callable[[int, dict], Awaitable[None]],
        *,
        done: asyncio.Future | None = None,
    ) -> None:
        """Answer ``healthz``/``stats`` inline; queue
        ``query``/``insert``/``delete`` through admission (responding
        4xx immediately when rejected or malformed)."""
        reply = functools.partial(self._answer, respond, done)

        if op == "healthz":
            await reply(
                200,
                {
                    "status": "ok",
                    "backend": self.session.backend_name,
                    "objects": len(self.session),
                    "uptime_seconds": round(
                        time.time() - self.stats.started_at, 3
                    ),
                    "serving": "async",
                },
            )
            return
        if op == "stats":
            await reply(200, self._stats_payload())
            return
        if op == "metrics":
            # JSONL transport of the exposition text; HTTP serves the
            # raw text/plain form at GET /metrics.
            await reply(200, {"text": self.metrics_text()})
            return

        # A truthy "trace" field (or the X-Repro-Trace header, folded
        # into the payload by the HTTP path) makes this request traced:
        # a string supplies the trace ID, any other truthy value mints
        # one. The span tree comes back on the response as "trace".
        trace_req = payload.get("trace")
        req_trace = None
        if trace_req:
            req_trace = obs_trace.Trace(
                trace_req if isinstance(trace_req, str) else None
            )

        if op == "query":
            try:
                raw = payload.get("queries")
                if raw is None:
                    raw = [payload]
                if not isinstance(raw, list):
                    raise WireError('"queries" must be a list of specs')
                specs = [spec_from_json(item) for item in raw]
            except WireError as exc:
                await reply(400, {"error": str(exc)})
                return
            if not specs:
                await reply(400, {"error": "no queries in request"})
                return
            if any(is_write_spec(s) for s in specs):
                await reply(
                    400,
                    {
                        "error": "write specs are not served by /query; "
                        "send the vectors to /insert or /delete (JSONL "
                        "ops insert/delete; writes serialize on the "
                        "primary session)"
                    },
                )
                return
            item = _Pending(
                "query", specs=specs, respond=respond, trace=req_trace
            )
        else:  # insert / delete
            if not self.session.writable:
                await reply(
                    403,
                    {
                        "error": "server session is read-only; restart "
                        "`repro serve` with --writable to accept writes"
                    },
                )
                return
            try:
                if "vectors" not in payload:
                    raise WireError(
                        f'{op} body must be {{"vectors": [pfv, ...]}}'
                    )
                raw = payload["vectors"]
                if not isinstance(raw, list):
                    raise WireError('"vectors" must be a list of pfv objects')
                vectors = [pfv_from_json(v) for v in raw]
            except WireError as exc:
                await reply(400, {"error": str(exc)})
                return
            if not vectors:
                await reply(400, {"error": "no vectors in request"})
                return
            item = _Pending(
                op, vectors=vectors, respond=respond, trace=req_trace
            )

        item.done = done
        try:
            self._admission.offer(client_id, item)
        except AdmissionError as exc:
            await reply(
                exc.status,
                {"error": str(exc), "retry_after": exc.retry_after},
            )
            return
        self._wake.set()

    def metrics_text(self) -> str:
        """The Prometheus exposition: this server's private registry
        concatenated with the process-global one (WAL, cluster,
        buffer series). Served by ``GET /metrics`` and the JSONL
        ``metrics`` op."""
        return self.registry.render() + get_global_registry().render()

    def _stats_payload(self) -> dict:
        payload = self.stats.snapshot()
        payload["backend"] = self.session.backend_name
        payload["objects"] = len(self.session)
        payload["session_pool"] = self._pool_snapshot()
        payload["admission"] = self._admission.snapshot()
        # The counters come from ServingStats, the same store /metrics
        # reads; the batch-size histogram lives only in the registry
        # (keys are a stable contract; see docs/serving.md).
        payload["coalescing"].update(
            batch_size=self._m_batch_size.summary(),
            max_batch=self.coalesce.max_batch,
            max_delay_seconds=self.coalesce.max_delay_seconds,
        )
        return payload


def serve_async(
    session: Session,
    host: str = "127.0.0.1",
    port: int = 8631,
    *,
    session_factory: Callable[[], Session] | None = None,
    pool_size: int = 1,
    admission: AdmissionConfig | None = None,
    coalesce: CoalesceConfig | None = None,
    drain_timeout: float = 10.0,
    registry: MetricsRegistry | None = None,
    slow_query_log: SlowQueryLog | str | None = None,
    slow_query_ms: float = 250.0,
) -> AsyncQueryServer:
    """Start serving ``session`` in a background thread; returns the
    running :class:`AsyncQueryServer` (use as a context manager to
    drain and stop). ``session_factory`` + ``pool_size`` open extra
    read-replica sessions so coalesced batches execute in parallel."""
    return AsyncQueryServer(
        session,
        host,
        port,
        session_factory=session_factory,
        pool_size=pool_size,
        admission=admission,
        coalesce=coalesce,
        drain_timeout=drain_timeout,
        registry=registry,
        slow_query_log=slow_query_log,
        slow_query_ms=slow_query_ms,
    ).serve_in_background()
