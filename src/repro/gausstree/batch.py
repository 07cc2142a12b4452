"""Batch identification queries: many queries in one buffer-warm pass.

*Scalable Probabilistic Similarity Ranking in Uncertain Databases*
(Bernecker et al., see PAPERS.md) amortizes index traversal across
concurrent queries. Identification queries pop different pages, so a
Gauss-tree batch shares what its queries reuse and none of a query's
numeric work:

* the whole batch runs against one page store without cold starts, so a
  page faulted in by one query is a **buffer hit** for every later query
  (and, for a disk-opened tree, the decoded node is reused rather than
  re-materialized);
* the tree's **leaf directory**
  (:meth:`~repro.gausstree.tree.GaussTree.leaf_directory`), built for the
  first query that sweeps or takes the census, serves every later one;
* a k-MLIQ whose hulls stop pruning sweeps that directory
  (:mod:`repro.gausstree.mliq`), and on a root leaf or a two-level tree
  every k-MLIQ does, without a traversal. A swept query only reads its
  pages; after the last query **one finish** answers every swept query
  of the batch, one kernel call over the directory's rows for those
  queries alone (:func:`~repro.gausstree.mliq.finish_sweeps`).

Every other query, a singleton included (``gausstree_mliq``/``gausstree_tiq``
are one-query batches), runs its own best-first traversal
(:class:`~repro.gausstree.search.SearchState`), built when the query
runs, with a :class:`BatchRefiner` of its own that evaluates the pages
it pops for that query alone. Whether a query sweeps depends only on
the query, its tolerance and the tree, so answer sets, posterior
guarantees and per-query logical page accounting do not depend on the
batch — the tests assert match-for-match equality.

The batch calls answer with row references
(:class:`~repro.core.queries.RowMatch`), valid until the tree next
changes: the engine builds the pfv of the matches it returns, and no
others (a sharded merge drops most shard candidates).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.queries import MLIQuery, QueryStats, RowMatch, ThresholdQuery
from repro.core.joint import log_joint_density_multi
from repro.gausstree.hull import node_log_bounds_multi
from repro.gausstree.mliq import finish_sweeps, search_mliq, sweeps_every_mliq
from repro.gausstree.node import InnerNode, LeafNode, Node
from repro.gausstree.search import _CAP, _UNDERFLOW, SearchState, query_stats
from repro.gausstree.tiq import search_tiq

__all__ = ["BatchRefiner", "gausstree_mliq_many", "gausstree_tiq_many"]


class BatchRefiner:
    """Per-page numeric work of one query's traversal, cached by page id.

    Each :class:`~repro.gausstree.search.SearchState` builds its own and
    sets :attr:`shift` to its initial scale shift; ``explain()`` builds
    one per query to ask the census. The end-to-end benchmark's layer
    tracer wraps :meth:`child_log_bounds`, :meth:`leaf_extras` and
    :meth:`leaf_log_densities` by name.

    **Sibling groups.** The first time the query needs a node's numbers,
    the refiner evaluates a *group*: the node plus those of its siblings
    (other children of its parent) that are materialized and not yet
    evaluated, in child order; a node without a parent is a group of
    one. One ``log_joint_density_multi`` (leaves) or
    ``node_log_bounds_multi`` (inner nodes) call covers the group, and
    every member's cache entry is a slice of its result. No budget caps
    a group: the Lemma-1 kernel cuts a large call into chunks itself
    (``_CHUNK_ELEMENTS`` in :mod:`repro.core.joint`).

    Only materialized siblings join: decoding a stub early would read
    its page outside the counted access path (``fetch_page`` does not
    fill the frame cache, so the counted ``read`` later fetches the bytes
    again) and would decode pages a cold query never reaches. A cold
    first query therefore evaluates page by page, and groups form once
    earlier queries have loaded the tree.

    **Speculative rows.** Groups may refine siblings the query then does
    not pop. On a disk tree, pages no query has reached yet stay stubs;
    an in-memory tree has none, and every sibling joins.
    ``QueryStats.objects_refined`` counts only the rows of popped pages,
    so these rows appear in no counter.

    **Bit-identity.** Grouping changes who computes a number, never its
    value. Both kernels are elementwise over rows and add their ``d``
    per-dimension planes one at a time, in the same order at every
    shape (a reduction would switch to pairwise summation for a single
    output element, so a 1-row leaf or 1-child node would differ alone),
    so a row's result does not depend on which other rows share the
    call. Each member's row maximum and denominator mass are reduced
    over that member's own slice, and numpy's pairwise summation of a
    contiguous slice matches the sum over that member's own row.
    """

    def __init__(self, tree, q) -> None:
        if q.dims != tree.dims:
            raise ValueError(f"query is {q.dims}-d, tree is {tree.dims}-d")
        self.tree = tree
        self.rule = tree.sigma_rule
        self.q_mu = q.mu[np.newaxis, :]
        self.q_sigma = q.sigma[np.newaxis, :]
        # The scale shift the leaf masses are taken against.
        self.shift = 0.0
        self._bounds_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Per leaf page: the query's density row, its maximum and its
        # scaled denominator mass.
        self._leaf_extras: dict[int, tuple[np.ndarray, float, float]] = {}
        # The query's bounds over the directory's leaf rectangles once it
        # takes the census (see leaf_hull_bounds).
        self._census: tuple[np.ndarray, np.ndarray] | None = None

    def _sibling_group(self, node: Node, evaluated: dict) -> list[Node]:
        """``node`` followed by its materialized siblings whose page ids
        are not in ``evaluated``, in child order."""
        parent = node.parent
        if parent is None:
            return [node]
        return [node] + [
            sibling
            for sibling in parent.children
            if sibling is not node
            and sibling.page_id not in evaluated
            and sibling.is_materialized
        ]

    def leaf_log_densities(self, leaf: LeafNode) -> np.ndarray:
        """The query's Lemma-1 log densities of the leaf's entries, the
        row of :meth:`leaf_extras`. Nothing in the package calls this; it
        is kept for the tests and for the end-to-end benchmark's layer
        tracer, which wraps it by name."""
        return self.leaf_extras(leaf)[0]

    def leaf_extras(
        self, leaf: LeafNode, siblings: bool = True
    ) -> tuple[np.ndarray, float, float]:
        """The query's expansion data for a leaf: ``(log_densities,
        row_max, scaled_mass)``.

        Computed for the leaf's whole sibling group (the leaf alone with
        ``siblings=False``, as the census asks) in a handful of array
        operations the first time the query touches the page;
        ``SearchState`` reads the cache directly on every later
        expansion. The scaled mass is bit-identical to
        ``np.sum(np.exp(np.clip(row - shift, _UNDERFLOW, _CAP)))`` for
        :attr:`shift` (elementwise ops are rowwise independent and
        numpy's pairwise summation of a contiguous slice matches the
        whole-row sum); the consumer must recompute the mass itself iff
        its current shift no longer equals :attr:`shift` (a query that
        re-anchored mid-traversal — rare by the 300-nat gap).
        """
        extras = self._leaf_extras.get(leaf.page_id)
        if extras is None:
            group = (
                self._sibling_group(leaf, self._leaf_extras)
                if siblings
                else [leaf]
            )
            if len(group) == 1:
                mu, sigma = leaf.arrays()
                sizes = [len(mu)]
            else:
                columns = [member.arrays() for member in group]  # type: ignore[attr-defined]
                mu = np.concatenate([c[0] for c in columns])
                sigma = np.concatenate([c[1] for c in columns])
                sizes = [len(c[0]) for c in columns]
            row = log_joint_density_multi(
                mu, sigma, self.q_mu, self.q_sigma, self.rule
            )[0]
            scaled = row - self.shift
            np.clip(scaled, _UNDERFLOW, _CAP, out=scaled)
            np.exp(scaled, out=scaled)
            stop = 0
            for member, size in zip(group, sizes):
                start, stop = stop, stop + size
                self._leaf_extras[member.page_id] = (
                    row[start:stop],
                    float(row[start:stop].max()),
                    float(scaled[start:stop].sum()),
                )
            extras = self._leaf_extras[leaf.page_id]
        return extras

    def leaf_hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` Lemma 2-3 bounds of every leaf's rectangle
        (:attr:`~repro.gausstree.tree.LeafDirectory.bounds`) for the
        query, each of shape ``(leaves,)`` in the directory's leaf order:
        what a k-MLIQ's census reads
        (:func:`~repro.gausstree.mliq.census_share`). One kernel call,
        the first time the census asks."""
        if self._census is None:
            lower, upper = node_log_bounds_multi(
                *self.tree.leaf_directory().bounds,
                self.q_mu,
                self.q_sigma,
                self.rule,
            )
            self._census = (lower[0], upper[0])
        return self._census

    def child_log_bounds(
        self, inner: InnerNode
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` hull bounds of the node's children for the
        query, each of shape ``(k,)``; computed once per inner node,
        together with the node's sibling group, or sliced from the
        census's bounds (:meth:`leaf_hull_bounds`) for a leaf parent once
        the query has taken the census."""
        cached = self._bounds_cache.get(inner.page_id)
        if cached is None and self._census is not None:
            # The census has bounded every leaf: a leaf parent's children
            # are a slice of that, which the directory lists last first.
            span = self.tree.leaf_directory().spans.get(inner.page_id)
            if span is not None:
                lower, upper = self._census
                cached = self._bounds_cache[inner.page_id] = (
                    lower[span[0] : span[1]][::-1],
                    upper[span[0] : span[1]][::-1],
                )
        if cached is None:
            group = self._sibling_group(inner, self._bounds_cache)
            stacks = [member.stacked_child_bounds() for member in group]  # type: ignore[attr-defined]
            lower, upper = node_log_bounds_multi(
                *(np.concatenate(column) for column in zip(*stacks)),
                self.q_mu,
                self.q_sigma,
                self.rule,
            )
            stop = 0
            for member, stack in zip(group, stacks):
                start, stop = stop, stop + len(stack[0])
                self._bounds_cache[member.page_id] = (
                    lower[0, start:stop],
                    upper[0, start:stop],
                )
            cached = self._bounds_cache[inner.page_id]
        return cached


def _run_many(
    tree, queries: Sequence, search: Callable
) -> tuple[list[list[RowMatch]], QueryStats]:
    """The loop both drivers share: for each query in order, a search
    state of its own, built when the query runs, then ``search(state,
    query)``."""
    results: list[list[RowMatch]] = []
    total = QueryStats()
    for query in queries:
        matches, stats = search(SearchState(tree, query.q), query)
        results.append(matches)
        total.merge(stats)
    return results, total


def gausstree_mliq_many(
    tree, queries: Sequence[MLIQuery], tolerance: float = 1e-9
) -> tuple[list[list[RowMatch]], QueryStats]:
    """Answer many k-MLIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``; the matches are
    row references (:class:`~repro.core.queries.RowMatch`), valid until
    the tree next changes. Results do not depend on the batch: each
    query's matches are those of a one-query batch (``gausstree_mliq``);
    only the wall time changes (a warm page cache, one leaf directory
    and one sweep finish). On a root leaf or a two-level tree every query sweeps
    instead of traversing (:func:`~repro.gausstree.mliq.sweeps_every_mliq`):
    each reads every node page, the root then its leaves in child order,
    and counts the root as its one expanded node. Every swept query of
    the batch, whatever sent it to the sweep, is answered after the last
    query by one :func:`~repro.gausstree.mliq.finish_sweeps`, with
    posteriors exact whatever the ``tolerance``.
    """
    if queries and sweeps_every_mliq(tree):
        page_ids = tree.leaf_directory().page_ids
        pages = [page_ids[0], *page_ids[:0:-1]]  # leaves back in child order
        store = tree.store
        rows = len(tree)
        results: list[list[RowMatch] | None] = [None] * len(queries)
        total = QueryStats()
        for _ in queries:
            store.begin_query()
            started = time.perf_counter()
            store.read_many(pages)
            stats = query_stats(tree, started, rows, nodes_expanded=1)
            stats.swept = 1
            total.merge(stats)
    else:
        results, total = _run_many(
            tree,
            queries,
            lambda state, query: search_mliq(state, query, tolerance),
        )
    finish_sweeps(tree, queries, results, total)
    return results, total


def gausstree_tiq_many(
    tree,
    queries: Sequence[ThresholdQuery],
    tolerance: float = 0.0,
    probability_tolerance: float | None = None,
) -> tuple[list[list[RowMatch]], QueryStats]:
    """Answer many TIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``, the matches as
    row references like :func:`gausstree_mliq_many`'s; per-query
    semantics are identical to ``gausstree_tiq``.
    """
    return _run_many(
        tree,
        queries,
        lambda state, query: search_tiq(
            state, query, tolerance, probability_tolerance
        ),
    )
