"""The "Seq. File" competitor of Figure 7: a paged sequential scan.

The general solution of Section 4 run "on top of a sequential scan of the
complete database": the pfv live in a flat paged file; an MLIQ reads every
page once (accumulating the denominator on the way); a TIQ reads the file
twice — one scan to determine the total probability, a second to report
the qualifying objects, exactly as the paper describes. Its passes are
counted as sequential runs, which the disk model prices as streaming IO;
that is what makes the scan harder to beat on *overall* time than on
page counts.

Queries reach the scan through the engine: connect with
``repro.connect(db, backend="seqscan")`` (or adopt a built index with
``repro.engine.session_for``) and execute the specs of
:mod:`repro.engine.spec`; the seqscan backend sends whole batches to the
shared-pass entry points below. Edge cases follow the engine's
normalised semantics: an empty database is a valid (zero-page) source
whose every query answers with the empty match list.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.bayes import posteriors_from_log_densities
from repro.core.database import PFVDatabase
from repro.core.joint import log_joint_density_multi
from repro.core.queries import Match, MLIQuery, QueryStats, ThresholdQuery
from repro.core.scan import top_k_order
from repro.storage.layout import PageLayout
from repro.storage.pagestore import PageStore

__all__ = ["SequentialScanIndex"]


class SequentialScanIndex:
    """Exact identification queries over a flat paged file of pfv."""

    def __init__(
        self,
        db: PFVDatabase,
        layout: PageLayout | None = None,
        page_store: PageStore | None = None,
    ) -> None:
        self.db = db
        self.store = page_store if page_store is not None else PageStore()
        if len(db) == 0:
            # Normalised empty-database semantics: a zero-page file whose
            # queries all answer with the empty match list. The layout
            # stays as given (possibly None: an empty db has no dims yet).
            self.layout = layout
            self._pages: list[int] = []
            self._rows_per_page = 0
            return
        self.layout = layout if layout is not None else PageLayout(dims=db.dims)
        per_page = self.layout.leaf_capacity
        self._pages = [
            self.store.allocate()
            for _ in range(self.layout.pages_for_sequential_file(len(db)))
        ]
        self._rows_per_page = per_page

    @property
    def file_pages(self) -> int:
        """Pages the flat file occupies."""
        return len(self._pages)

    # -- implementations (the engine's seqscan backend calls these) ----------

    def _scan_once_multi(self, queries: Sequence) -> np.ndarray:
        """One sequential pass shared by a whole batch: every page is read
        once, densities for all m queries come from one ``(m, n)`` kernel."""
        self.store.read_sequential_run(self._pages)
        q_mu = np.vstack([q.mu for q in queries])
        q_sigma = np.vstack([q.sigma for q in queries])
        return log_joint_density_multi(
            self.db.mu_matrix, self.db.sigma_matrix, q_mu, q_sigma,
            self.db.sigma_rule,
        )

    def _mliq_many_impl(
        self, queries: Sequence[MLIQuery]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Exact k-MLIQs for a batch in a *single* sequential pass.

        The flat file is scanned once for the whole batch (the per-query
        answer only needs that query's density row), so page accesses are
        those of one scan, not of ``m`` scans. Returns ``(per-query match
        lists, aggregate stats)`` like the Gauss-tree batch API.
        """
        queries = list(queries)
        if not queries:
            return [], QueryStats()
        self.store.begin_query()
        started = time.perf_counter()
        if not self._pages:
            return [[] for _ in queries], self._stats(0, started)
        log_dens = self._scan_once_multi([query.q for query in queries])
        results: list[list[Match]] = []
        for row, query in zip(log_dens, queries):
            post = posteriors_from_log_densities(row)
            order = top_k_order(row, query.k)
            results.append(
                [
                    Match(self.db[int(i)], float(row[int(i)]), float(post[int(i)]))
                    for i in order
                ]
            )
        return results, self._stats(len(self.db) * len(queries), started)

    def _tiq_many_impl(
        self, queries: Sequence[ThresholdQuery]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Exact TIQs for a batch: one density pass plus one report pass."""
        queries = list(queries)
        if not queries:
            return [], QueryStats()
        self.store.begin_query()
        started = time.perf_counter()
        if not self._pages:
            return [[] for _ in queries], self._stats(0, started)
        log_dens = self._scan_once_multi([query.q for query in queries])
        self.store.read_sequential_run(self._pages)  # report pass
        results: list[list[Match]] = []
        for row, query in zip(log_dens, queries):
            post = posteriors_from_log_densities(row)
            order = np.lexsort((np.arange(row.size), -row))
            results.append(
                [
                    Match(self.db[int(i)], float(row[int(i)]), float(post[int(i)]))
                    for i in order
                    if post[int(i)] >= query.p_theta
                ]
            )
        return results, self._stats(len(self.db) * len(queries), started)

    def _stats(self, refined: int, started: float) -> QueryStats:
        return QueryStats.from_log(self.store.log, started, refined)

    def __repr__(self) -> str:
        return f"SequentialScanIndex(n={len(self.db)}, pages={self.file_pages})"
