"""Admission control: bounded, fair request queues for the async tier.

The serving problem this solves: a million clients must not translate
into a million threads (the thread-per-connection failure mode) or an
unbounded backlog that grows until the process dies. Instead,
every request passes one :class:`AdmissionQueue` with two explicit
bounds — a global one and a per-client one — and a request that would
exceed either is *rejected immediately* with HTTP 429 plus a
``Retry-After`` hint, which costs the server a few microseconds instead
of memory. Dequeue order is round-robin over clients, so a greedy
client that pipelines hundreds of requests cannot starve a polite one:
each pass over the ring takes at most one request per client.

The queue itself is plain single-threaded data structure code — the
asyncio server only touches it from its event loop, and the unit tests
drive it directly without a loop.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable

__all__ = ["AdmissionConfig", "AdmissionError", "AdmissionQueue"]


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Bounds and backpressure knobs for one :class:`AdmissionQueue`.

    Parameters
    ----------
    max_queue:
        Global cap on queued requests across all clients; the
        ``max_queue + 1``-th concurrent request answers 429.
    max_queue_per_client:
        Cap per connection — one client pipelining past it gets 429
        while everyone else keeps being admitted.
    retry_after_seconds:
        The ``Retry-After`` hint sent with a 429/503, i.e. how long a
        well-behaved client should back off before retrying.
    """

    max_queue: int = 512
    max_queue_per_client: int = 64
    retry_after_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_queue_per_client < 1:
            raise ValueError(
                "max_queue_per_client must be >= 1, got "
                f"{self.max_queue_per_client}"
            )
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be non-negative")


class AdmissionError(Exception):
    """A request the queue refused to admit (backpressure, not failure).

    ``status`` is the HTTP status to answer with (429 when a bound is
    hit, 503 while draining) and ``retry_after`` the backoff hint in
    seconds.
    """

    def __init__(
        self, status: int, message: str, retry_after: float
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class AdmissionQueue:
    """Bounded per-client queues with round-robin fair dequeue.

    ``offer`` admits or raises :class:`AdmissionError`; ``take_run``
    dequeues a batch round-robin over clients (at most one request per
    client per ring pass), preserving each client's FIFO order. After
    :meth:`begin_drain` no new request is admitted (offers answer 503)
    but everything already queued still drains through ``take_run`` —
    graceful shutdown finishes admitted work, it never drops it.
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self._queues: dict[object, deque] = {}
        self._ring: deque = deque()
        self._in_ring: set = set()
        self._pending = 0
        self._draining = False
        self.admitted = 0
        self.rejected = 0
        self.rejected_draining = 0
        self.peak_pending = 0
        self.clients_seen = 0
        self._known_clients: set = set()

    @property
    def pending(self) -> int:
        """Requests currently queued (admitted, not yet taken)."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` was called."""
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting; queued requests keep draining."""
        self._draining = True

    def offer(self, client_id: object, item: object) -> None:
        """Admit ``item`` for ``client_id`` or raise :class:`AdmissionError`.

        Rejection is O(1) and allocation-free on the hot path — the
        whole point of admission control is that saying "try later"
        stays cheap when the server is busiest.
        """
        cfg = self.config
        if self._draining:
            self.rejected_draining += 1
            raise AdmissionError(
                503,
                "server is draining; no new requests admitted",
                cfg.retry_after_seconds,
            )
        if self._pending >= cfg.max_queue:
            self.rejected += 1
            raise AdmissionError(
                429,
                f"request queue is full ({cfg.max_queue} pending)",
                cfg.retry_after_seconds,
            )
        q = self._queues.get(client_id)
        if q is None:
            q = self._queues[client_id] = deque()
            if client_id not in self._known_clients:
                self._known_clients.add(client_id)
                self.clients_seen += 1
        elif len(q) >= cfg.max_queue_per_client:
            self.rejected += 1
            raise AdmissionError(
                429,
                "per-client queue is full "
                f"({cfg.max_queue_per_client} pending)",
                cfg.retry_after_seconds,
            )
        q.append(item)
        self._pending += 1
        self.peak_pending = max(self.peak_pending, self._pending)
        self.admitted += 1
        if client_id not in self._in_ring:
            self._ring.append(client_id)
            self._in_ring.add(client_id)

    def peek(self):
        """The request the next ``take_run`` would dequeue first, or
        ``None`` when the queue is empty."""
        while self._ring:
            cid = self._ring[0]
            q = self._queues.get(cid)
            if q:
                return q[0]
            self._ring.popleft()
            self._in_ring.discard(cid)
            self._queues.pop(cid, None)
        return None

    def has(self, pred: Callable[[object], bool]) -> bool:
        """Whether any queued *head* request satisfies ``pred``."""
        return any(q and pred(q[0]) for q in self._queues.values())

    def take_run(
        self,
        pred: Callable[[object], bool],
        limit: int,
        weight: Callable[[object], int] | None = None,
    ) -> list:
        """Dequeue a batch of head requests matching ``pred``, fairly.

        Cycles the client ring taking at most one matching head per
        client per pass (per-client FIFO is preserved: a client whose
        head does *not* match contributes nothing this run). Stops when
        the accumulated ``weight`` (default: one per request) reaches
        ``limit`` or no head matches; the first taken request always
        fits, so an oversized single request still executes.
        """
        items: list = []
        total = 0
        while total < limit:
            took = False
            for _ in range(len(self._ring)):
                if total >= limit:
                    break
                cid = self._ring.popleft()
                q = self._queues.get(cid)
                if not q:
                    self._in_ring.discard(cid)
                    self._queues.pop(cid, None)
                    continue
                if pred(q[0]):
                    item = q.popleft()
                    self._pending -= 1
                    items.append(item)
                    total += weight(item) if weight is not None else 1
                    took = True
                if q:
                    self._ring.append(cid)
                else:
                    self._in_ring.discard(cid)
                    self._queues.pop(cid, None)
            if not took:
                break
        return items

    def snapshot(self) -> dict:
        """Admission counters for ``GET /stats``.

        ``per_client_pending`` maps each client with a non-empty queue
        to its current depth — the fairness view (``docs/serving.md``):
        a single hot client shows up as one deep queue, not as a vague
        global ``pending``.
        """
        return {
            "pending": self._pending,
            "peak_pending": self.peak_pending,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_draining": self.rejected_draining,
            "clients_seen": self.clients_seen,
            "max_queue": self.config.max_queue,
            "max_queue_per_client": self.config.max_queue_per_client,
            "per_client_pending": {
                str(cid): len(q) for cid, q in self._queues.items() if q
            },
        }
