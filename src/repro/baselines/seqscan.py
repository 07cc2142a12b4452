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
from repro.core.joint import PreparedColumns
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
        # The database's mu matrix and the kernel columns prepared from
        # it (see _columns).
        self._prepared: tuple[np.ndarray, PreparedColumns] | None = None
        # Normalised empty-database semantics: a zero-page file whose
        # queries all answer with the empty match list. The layout stays
        # as given (possibly None: an empty db has no dims yet) until the
        # file first holds rows (see _file).
        self.layout = layout
        self._pages: list[int] = []
        self._file()

    def _file(self) -> list[int]:
        """The flat file's pages, grown first to hold the database's
        current rows (``PFVDatabase.add`` may have added some since the
        last pass); the layout comes from the rows' dims if none was
        given."""
        if len(self.db):
            if self.layout is None:
                self.layout = PageLayout(dims=self.db.dims)
            wanted = self.layout.pages_for_sequential_file(len(self.db))
            while len(self._pages) < wanted:
                self._pages.append(self.store.allocate())
        return self._pages

    @property
    def file_pages(self) -> int:
        """Pages the flat file occupies."""
        return len(self._file())

    # -- implementations (the engine's seqscan backend calls these) ----------

    def _columns(self) -> PreparedColumns:
        """The file's rows in the Lemma-1 kernel's layout, prepared once
        from the database's matrices and again when they change
        (``PFVDatabase.add`` drops them): the layout the Gauss-tree's
        leaf directory keeps, for ``2 * n * d`` more floats."""
        mu = self.db.mu_matrix
        if self._prepared is None or self._prepared[0] is not mu:
            columns = PreparedColumns.stack(
                [(mu, self.db.sigma_matrix)], *mu.shape, self.db.sigma_rule
            )
            self._prepared = (mu, columns)
        return self._prepared[1]

    def _scan_once_multi(self, queries: Sequence) -> np.ndarray:
        """One sequential pass shared by a whole batch: every page is read
        once, densities for all m queries come from one ``(m, n)`` kernel.
        The callers have grown the file (``_file``) first."""
        self.store.read_sequential_run(self._pages)
        q_mu = np.vstack([q.mu for q in queries])
        q_sigma = np.vstack([q.sigma for q in queries])
        return self._columns().log_densities(q_mu, q_sigma)

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
        if not self._file():
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
        if not self._file():
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
