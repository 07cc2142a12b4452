"""Per-figure experiment definitions of the paper's evaluation (Section 6).

Each function here regenerates the data behind one figure:

* :func:`figure6` — effectiveness (precision/recall) of conventional NN at
  result-set multiples x1..x9 versus MLIQ on pfv, Figure 6(a)/(b);
* :func:`figure7` — efficiency (page accesses, CPU time, overall time,
  each as a percentage of the sequential scan) of Gauss-tree, X-tree on
  rectangular approximations, and sequential scan, for 1-MLIQ, TIQ(0.8)
  and TIQ(0.2), Figure 7(a)/(b).

The datasets are built by :func:`dataset1` (the 10,987x27 colour-histogram
substitute) and :func:`dataset2` (the paper's own synthetic 100,000x10
generator). Both accept a scale factor because building a 100k-object
index in pure Python is slow: data set 1 runs at the paper's size by
default, data set 2 at 20% of it, and ``REPRO_FULL_SCALE=1`` runs the
paper's sizes.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Sequence

from repro.baselines.nn import knn_euclidean
from repro.core.database import PFVDatabase
from repro.core.queries import MLIQuery
from repro.data.histograms import color_histogram_dataset
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import IdentificationQuery, identification_workload
from repro.engine import connect
from repro.eval.metrics import PrecisionRecall, precision_recall
from repro.eval.runner import BatchResult, run_mliq_batch, run_tiq_batch
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import PAPER_TESTBED
from repro.storage.layout import PageLayout
from repro.storage.pagestore import PageStore

__all__ = [
    "dataset1",
    "dataset2",
    "full_scale",
    "Figure6Row",
    "figure6",
    "Figure7Cell",
    "figure7",
    "make_page_store",
]

#: Paper cache budget: "up to 50 MByte as database cache".
CACHE_BYTES = 50 * 1024 * 1024


def full_scale() -> bool:
    """Has the caller requested the paper's full dataset sizes?"""
    return os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def dataset1(scale: float | None = None) -> PFVDatabase:
    """Data set 1 substitute: 10,987 x 27-d colour histograms."""
    if scale is None:
        scale = 1.0  # small enough to always run at paper scale
    n = max(500, int(round(10_987 * scale)))
    return color_histogram_dataset(n=n)


def dataset2(scale: float | None = None) -> PFVDatabase:
    """Data set 2: 100,000 x 10-d uniform pfv (paper's own generator)."""
    if scale is None:
        scale = 1.0 if full_scale() else 0.2
    n = max(1_000, int(round(100_000 * scale)))
    return uniform_pfv_dataset(n=n)


def make_page_store(dims: int, cache_bytes: int = CACHE_BYTES) -> PageStore:
    """A page store sized like the paper's testbed (50 MB LRU cache)."""
    layout = PageLayout(dims=dims)
    return PageStore(
        buffer=BufferManager.from_bytes(cache_bytes, layout.page_size)
    )


# ---------------------------------------------------------------------------
# Figure 6 — effectiveness
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Figure6Row:
    """One x-axis point of Figure 6: result-set multiple vs scores."""

    multiple: int
    nn: PrecisionRecall
    mliq: PrecisionRecall


def figure6(
    db: PFVDatabase,
    workload: Sequence[IdentificationQuery] | None = None,
    n_queries: int = 100,
    multiples: Sequence[int] = tuple(range(1, 10)),
    seed: int = 7,
) -> list[Figure6Row]:
    """Precision/recall of Euclidean NN vs MLIQ at result multiples x1..x9.

    NN retrieves ``multiple`` nearest means; MLIQ retrieves the
    ``multiple`` most likely objects (the paper keeps MLIQ at the exact
    result size and shows it flat — we sweep it too, which only confirms
    the flatness). Uses the exact sequential-scan MLIQ: Figure 6 is about
    result *quality*, which is identical for every exact access method.
    """
    from repro.core.scan import scan_mliq

    if workload is None:
        workload = identification_workload(db, n_queries, seed=seed)
    truth = [item.true_key for item in workload]
    rows: list[Figure6Row] = []
    # Compute the full ranking once per query, reuse for every multiple.
    max_multiple = max(multiples)
    nn_full = [
        [key for key, _ in knn_euclidean(db, item.q.mu, max_multiple)]
        for item in workload
    ]
    mliq_full = [
        [m.key for m in scan_mliq(db, MLIQuery(item.q, max_multiple))]
        for item in workload
    ]
    for multiple in multiples:
        nn_score = precision_recall([keys[:multiple] for keys in nn_full], truth)
        mliq_score = precision_recall(
            [keys[:multiple] for keys in mliq_full], truth
        )
        rows.append(Figure6Row(multiple=multiple, nn=nn_score, mliq=mliq_score))
    return rows


# ---------------------------------------------------------------------------
# Figure 7 — efficiency
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Figure7Cell:
    """One bar of Figure 7: a method under one query type.

    ``cpu_percent`` and ``overall_percent`` price the batch's counters
    on the 2006 testbed (``repro.storage.costmodel.PAPER_TESTBED``);
    ``wall_cpu_percent`` is the measured Python time, reported for
    transparency.
    """

    method: str
    query_kind: str
    pages_percent: float
    cpu_percent: float
    overall_percent: float
    wall_cpu_percent: float
    batch: BatchResult


def _gausstree_session(db: PFVDatabase, mliq_tolerance: float):
    """Gauss-tree session with its own page store, paper-sized cache.

    With the default ``mliq_tolerance = inf`` both query types run the
    paper's published algorithms verbatim: Figure 4's k-MLIQ (ranking,
    no posterior refinement) and Figure 5's TIQ (candidates decided by
    the denominator bounds, traversal stops as soon as no unexplored
    subtree can qualify — which can keep borderline candidates the exact
    variant would still resolve). The library's stricter defaults
    (``tolerance=1e-9`` / ``0.0``) buy provably exact posteriors/answer
    sets for extra page reads; :func:`figure7` measures either setting.
    """
    return connect(
        db,
        backend="tree",
        page_store=make_page_store(db.dims),
        mliq_tolerance=mliq_tolerance,
        tiq_tolerance=mliq_tolerance,
    )


def figure7(
    db: PFVDatabase,
    workload: Sequence[IdentificationQuery] | None = None,
    n_queries: int = 100,
    thresholds: Sequence[float] = (0.8, 0.2),
    mliq_tolerance: float = math.inf,
    seed: int = 7,
) -> list[Figure7Cell]:
    """Page accesses / CPU / overall time as % of the sequential scan.

    Reproduces the full grid of Figure 7 for one dataset: three access
    methods x (1-MLIQ + one TIQ per threshold). ``mliq_tolerance`` is the
    user-specified posterior accuracy of Section 5.2.2; the default
    ``inf`` benchmarks the paper's Figure-4 k-MLIQ algorithm itself
    (ranking without posterior refinement — Section 5.2.2 is an optional
    extension on top of it). Pass e.g. ``0.01`` for two-digit posteriors.
    """
    if workload is None:
        workload = identification_workload(db, n_queries, seed=seed)

    methods = {
        "G-Tree": _gausstree_session(db, mliq_tolerance),
        "X-Tree": connect(
            db, backend="xtree", page_store=make_page_store(db.dims)
        ),
        "Seq.File": connect(
            db, backend="seqscan", page_store=make_page_store(db.dims)
        ),
    }
    # Every Gauss-tree leaf is columnar, so its refinements are priced at
    # the vectorized rate; the X-tree and the scan at the scalar rate.
    vectorized = {"G-Tree": True, "X-Tree": False, "Seq.File": False}

    batches: dict[tuple[str, str], BatchResult] = {}
    for name, method in methods.items():
        batch = run_mliq_batch(method, workload, k=1, method_name=name)
        batches[(name, batch.query_kind)] = batch
        for p_theta in thresholds:
            batch = run_tiq_batch(method, workload, p_theta, method_name=name)
            batches[(name, batch.query_kind)] = batch

    cells: list[Figure7Cell] = []
    query_kinds = ["1-MLIQ"] + [f"TIQ(P={p:g})" for p in thresholds]
    for query_kind in query_kinds:
        base = batches[("Seq.File", query_kind)].totals
        base_io, base_cpu = PAPER_TESTBED.price(base, vectorized=False)
        for name in methods:
            b = batches[(name, query_kind)]
            io, cpu = PAPER_TESTBED.price(
                b.totals, vectorized=vectorized[name]
            )
            cells.append(
                Figure7Cell(
                    method=name,
                    query_kind=query_kind,
                    pages_percent=_percent(
                        b.totals.pages_accessed, base.pages_accessed
                    ),
                    cpu_percent=_percent(cpu, base_cpu),
                    overall_percent=_percent(cpu + io, base_cpu + base_io),
                    wall_cpu_percent=_percent(
                        b.totals.cpu_seconds, base.cpu_seconds
                    ),
                    batch=b,
                )
            )
    return cells


def _percent(value: float, base: float) -> float:
    return 100.0 * value / base if base > 0 else float("nan")
