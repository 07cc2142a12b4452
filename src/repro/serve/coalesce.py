"""Coalescing knobs for the serving tier.

Why a window at all: the engine's batch entry points amortize traversal
work across queries (``execute_many`` groups same-kind reads; one
``insert_many`` shares one group-commit fsync), but HTTP/JSONL clients
mostly send singletons. The dispatcher therefore fuses concurrent
requests server-side — and these knobs bound how aggressively. The
trade is explicit: a larger ``max_batch``/``max_delay_seconds`` buys
amortization (throughput) at the cost of up to ``max_delay_seconds``
added latency for the *first* request of a batch when the server is
idle. Under load the delay is irrelevant — batches fill from the queue
the moment a pool session frees up — which is exactly when
amortization pays most.
"""

from __future__ import annotations

import dataclasses

__all__ = ["CoalesceConfig"]


@dataclasses.dataclass(frozen=True)
class CoalesceConfig:
    """Batching window for the serving dispatcher.

    Parameters
    ----------
    max_batch:
        Most engine operations (query specs, insert vectors) fused into
        one ``execute_many``/``insert_many`` call. A single oversized
        request still executes alone.
    max_delay_seconds:
        How long a dispatcher holding a free session waits for
        stragglers before executing an underfull batch. ``0`` disables
        the wait (batches still form from whatever is already queued).
    coalesce_reads / coalesce_writes:
        Disable fusing per direction; requests then execute one per
        batch. The benchmark's baseline server runs with
        ``coalesce_reads=False``.
    """

    max_batch: int = 16
    max_delay_seconds: float = 0.002
    coalesce_reads: bool = True
    coalesce_writes: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be non-negative")
