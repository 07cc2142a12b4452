"""Query planning: how a session will execute a spec, described upfront.

``Session.explain(query)`` returns a :class:`Plan` — which backend will
serve the query, whether the batch runs through a native shared-pass
entry point or a per-query loop, how rank queries are lowered, and an
order-of-magnitude page/IO estimate priced on the 2006 testbed of
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
        The page estimate priced on the 2006 disk of
        :class:`~repro.storage.costmodel.DiskCostModel`.
    estimated_cpu_seconds:
        Modeled refinement CPU for the batch. Gauss-tree leaves are
        all columnar, so their refinements are priced at the cost
        model's vectorized per-object rate; seqscan and the X-tree
        at the scalar rate.
    notes:
        Backend-provided caveats (accuracy, what drives the estimate).
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
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def build_plan(backend: Backend, queries: Sequence[Query]) -> Plan:
    """Describe how ``backend`` will execute ``queries``."""
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
    # Each kind's sub-batch is priced by the backend's estimate;
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
    )
