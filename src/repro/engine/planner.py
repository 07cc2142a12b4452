"""Query planning: how a session will execute a spec, described upfront.

``Session.explain(query)`` returns a :class:`Plan` — which backend will
serve the query, whether the batch runs through a native shared-pass
entry point or a per-query loop, how rank queries are lowered, and an
order-of-magnitude page/IO estimate priced by the backend's
:mod:`~repro.storage.costmodel`. Plans are descriptive, not binding
optimizer output: with one backend per session there is no join search,
but the seam is where a future cost-based backend *chooser* (or a
sharding fan-out) plugs in.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.engine.backends import Backend
from repro.engine.spec import Query, query_kind
from repro.storage.costmodel import DiskCostModel

__all__ = ["Plan", "build_plan"]


@dataclasses.dataclass(frozen=True)
class Plan:
    """How one execute()/execute_many() call will run.

    Attributes
    ----------
    backend:
        Name of the backend that will serve the batch (provenance).
    query_kind:
        ``"mliq"``, ``"tiq"``, ``"rank"``, ``"consensus"``, ``"erank"``
        or ``"mixed"`` for a batch spanning kinds.
    n_queries:
        Batch size.
    strategy:
        ``"batched"`` (native shared-pass entry point) or
        ``"per-query"`` (executor loop).
    lowering:
        Spec-to-execution translations applied, e.g.
        ``("rank -> mliq(k) + mass cut",)``.
    estimated_pages:
        Order-of-magnitude page-access guess for the whole batch.
    estimated_io_seconds:
        The estimate priced by the backend's disk cost model.
    estimated_cpu_seconds:
        Modeled refinement CPU for the batch. Gauss-tree leaves are
        all columnar, so their refinements are priced at the cost
        model's vectorized per-object rate; seqscan and the X-tree
        at the scalar rate.
    notes:
        Backend-provided caveats (accuracy, what drives the estimate).
    estimated_queue_seconds:
        Expected queueing delay added by the serving tier's batching
        window (zero for a plain in-process plan).
    coalesce_batch:
        Expected fused-batch size the plan was priced for (1 = no
        coalescing).
    coalesce_amortization:
        Per-query speedup factor the fused batch is expected to yield;
        the IO/CPU estimates are already divided by it.
    """

    backend: str
    query_kind: str
    n_queries: int
    strategy: str
    lowering: tuple[str, ...]
    estimated_pages: int
    estimated_io_seconds: float
    notes: tuple[str, ...]
    estimated_cpu_seconds: float = 0.0
    estimated_queue_seconds: float = 0.0
    coalesce_batch: int = 1
    coalesce_amortization: float = 1.0

    def describe(self) -> str:
        """Multi-line human-readable rendering (the CLI's --explain)."""
        lines = [
            f"plan: {self.n_queries} {self.query_kind} "
            f"quer{'y' if self.n_queries == 1 else 'ies'} "
            f"on backend {self.backend!r}",
            f"  strategy: {self.strategy}",
        ]
        for step in self.lowering:
            lines.append(f"  lowering: {step}")
        lines.append(
            f"  estimate: ~{self.estimated_pages} page accesses, "
            f"~{self.estimated_io_seconds * 1e3:.1f} ms modeled IO, "
            f"~{self.estimated_cpu_seconds * 1e3:.1f} ms modeled CPU"
        )
        if self.coalesce_batch > 1:
            lines.append(
                f"  coalesce: batch of ~{self.coalesce_batch} -> "
                f"{self.coalesce_amortization:.2f}x per-query "
                f"amortization, "
                f"+{self.estimated_queue_seconds * 1e3:.1f} ms expected "
                "queue wait"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def build_plan(
    backend: Backend,
    queries: Sequence[Query],
    *,
    coalesce: object | None = None,
) -> Plan:
    """Describe how ``backend`` will execute ``queries``.

    ``coalesce`` prices the plan as if it were served through the async
    serving tier's batching window: pass a
    :class:`~repro.serve.coalesce.CoalesceConfig` (or any object with
    ``max_batch``/``max_delay_seconds``, or a ``(max_batch,
    max_delay_seconds)`` tuple). The per-query IO/CPU estimates are
    divided by the cost model's expected batch amortization, one
    dispatcher overhead per query is added, and
    ``estimated_queue_seconds`` carries the expected wait inside the
    batching window — so an explain shows both what coalescing buys
    (amortization) and what it costs (queue delay).
    """
    if not queries:
        return Plan(
            backend=backend.name,
            query_kind="empty",
            n_queries=0,
            strategy="no-op",
            lowering=(),
            estimated_pages=0,
            estimated_io_seconds=0.0,
            notes=("empty batch",),
        )
    kinds = [query_kind(q) for q in queries]
    kind = kinds[0] if len(set(kinds)) == 1 else "mixed"
    lowering: list[str] = []
    if "rank" in kinds:
        lowering.append("rank -> mliq(k) + cumulative-mass cut")
    if "consensus" in kinds:
        lowering.append(
            "consensus -> mliq(k) + per-world membership probabilities"
        )
    if "erank" in kinds:
        lowering.append(
            "erank -> mliq(k) + expected-rank scores "
            "(expected-rank order == density order)"
        )
    if kind == "mixed":
        lowering.append("mixed batch split into one sub-batch per kind")
    # Composite backends (the sharded fan-out) describe their own extra
    # lowering steps — fan-out shape, merge strategy.
    extra = getattr(backend, "plan_lowering", None)
    if extra is not None:
        lowering.extend(extra(set(kinds)))
    batched = "batch" in backend.capabilities
    strategy = "batched" if batched else "per-query"

    pages = 0
    io_seconds = 0.0
    cpu_seconds = 0.0
    notes: list[str] = []
    # Price each kind's sub-batch with the backend's own cost model;
    # rank/consensus/erank are priced as the mliq they lower to.
    by_kind: dict[str, list[Query]] = {}
    for q, k in zip(queries, kinds):
        sub = "mliq" if k in ("rank", "consensus", "erank") else k
        by_kind.setdefault(sub, []).append(q)
    for sub_kind, sub in by_kind.items():
        est = backend.estimate(sub_kind, sub)
        pages += est.pages
        io_seconds += est.io_seconds
        cpu_seconds += est.cpu_seconds
        if est.note and est.note not in notes:
            notes.append(est.note)
    if "exact" not in backend.capabilities:
        notes.append("backend is approximate: answer sets may miss objects")

    queue_seconds = 0.0
    coalesce_batch = 1
    amortization = 1.0
    if coalesce is not None:
        if isinstance(coalesce, tuple):
            max_batch, max_delay = coalesce
        else:
            max_batch = coalesce.max_batch
            max_delay = coalesce.max_delay_seconds
        max_batch = int(max_batch)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        cost_model = getattr(backend, "cost_model", None) or DiskCostModel()
        coalesce_batch = max_batch
        amortization = cost_model.coalesce_amortization(max_batch)
        io_seconds /= amortization
        cpu_seconds = (
            cpu_seconds / amortization
            + cost_model.coalesce_dispatch_seconds * len(queries)
        )
        queue_seconds = cost_model.expected_coalesce_wait_seconds(
            float(max_delay)
        )
        if max_batch > 1:
            lowering.append(
                f"serving-tier coalescing fuses up to {max_batch} "
                "concurrent requests into one batched call"
            )
    return Plan(
        backend=backend.name,
        query_kind=kind,
        n_queries=len(queries),
        strategy=strategy,
        lowering=tuple(lowering),
        estimated_pages=pages,
        estimated_io_seconds=io_seconds,
        estimated_cpu_seconds=cpu_seconds,
        notes=tuple(notes),
        estimated_queue_seconds=queue_seconds,
        coalesce_batch=coalesce_batch,
        coalesce_amortization=amortization,
    )
