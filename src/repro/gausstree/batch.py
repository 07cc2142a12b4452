"""Batch identification queries: amortize traversal work across queries.

*Scalable Probabilistic Similarity Ranking in Uncertain Databases*
(Bernecker et al., see PAPERS.md) frames the scalability story for
probabilistic similarity search as amortizing index traversal cost across
many concurrent queries. This module applies that idea to the Gauss-tree:

* the whole batch runs against one page store without cold starts, so a
  page faulted in by one query is a **buffer hit** for every later query
  (and, for a disk-opened tree, the decoded node is reused rather than
  re-materialized);
* per-node numeric work is **vectorized across the batch** by a shared
  :class:`BatchRefiner`: the first query to expand a node computes leaf
  Lemma-1 densities / child hull bounds for *all* queries in one numpy
  evaluation (an ``(m, n)`` kernel instead of ``m`` separate ``(n,)``
  calls), and later queries reaching the same node pay a dictionary
  lookup. Identification workloads cluster around the database objects,
  so batch members overwhelmingly revisit one another's nodes;
* the same amortization runs **across sibling pages**: that first
  evaluation also covers the node's siblings that are already in memory,
  so one kernel call fills the cache entries of a whole group of pages
  (see :class:`BatchRefiner` for the group rule);
* a k-MLIQ whose hulls stop pruning sweeps the tree's leaf directory
  (:mod:`repro.gausstree.mliq`). On a tree of three or more levels a
  finite-tolerance query decides after the root's expansion, from a
  census of its leaf rectangles that the refiner bounds once for the
  whole batch; the leaf parents' child bounds of later traversals are
  slices of it. On a root leaf or a two-level tree, a root over leaves,
  every k-MLIQ sweeps without a traversal. A swept query only reads its
  pages; after the last query one finish answers every swept query of
  the batch, one kernel call over the directory's rows for those
  queries alone (:func:`~repro.gausstree.mliq.finish_sweeps`), so the
  refiner holds nothing of a sweep;
* for every leaf (all leaves are columnar) the refiner additionally
  precomputes, per page, every query's row maximum and scaled
  denominator mass — so a leaf expansion costs a dictionary lookup and
  two float adds instead of four small-array numpy reductions. The
  per-query shifts are registered up front and the mass is recomputed
  exactly for the rare query that re-anchors its shift mid-traversal,
  keeping the accumulated sums bit-identical to per-page evaluation.

Every query, a singleton included (``gausstree_mliq``/``gausstree_tiq``
are one-query batches), runs through a refiner and, unless it sweeps a
tree of one or two levels, owns its best-first traversal
(:class:`~repro.gausstree.search.SearchState`). Whether it sweeps
depends only on the query, its tolerance and the tree, so answer sets,
posterior guarantees and per-query logical page accounting do not
depend on the batch — the tests assert match-for-match equality.

The batch calls answer with row references
(:class:`~repro.core.queries.RowMatch`), valid until the tree next
changes: the engine builds the pfv of the matches it returns, and no
others (a sharded merge drops most shard candidates).
"""

from __future__ import annotations

import time
from itertools import accumulate
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

# The most float64 elements, m * rows * d, that one sibling-group kernel
# may broadcast (m queries, rows leaf rows or child rectangles, d
# dimensions); its (d, m, rows) temporaries then stay at 256 KiB each.
# The Lemma-1 kernel's budget (_CHUNK_ELEMENTS in repro.core.joint, also
# 32,768) gives a chunk budget // d rows, at least the group's, and a
# block the queries that fit beside them, at least the group's m, so it
# evaluates a group of several nodes in one chunk and one block.
# Chosen on the end-to-end identify-sharded workload (16-query batches
# over 6-d shards of one root and 32 leaves), runs alternated with the
# 2.3.0 code on a 2-vCPU host, seeds 310-313, queries/s at peak RSS:
# 2.3.0 199.5-203.5 at 65.5-66.5 MiB; 8,192 elements 195.7-198.9 at
# 66.5-66.6 MiB (two runs); 16,384 190.4-213.3 at 66.0-66.9 MiB; 32,768
# 202.1-216.2 at 67.1-67.9 MiB; 65,536 186.2-189.9 at 68.7-68.8 MiB (two
# runs). Each of them covers a whole parent for a singleton query on
# 10-d data (about 700 rows). Re-measured with the dimension-major
# kernels, seeds 221-222: an earlier variant that summed with
# np.add.reduce read 32,768 249-259 at 66.9-67.0 MiB, 131,072
# 240.6-241.5 at 69.7 MiB and 262,144 228.6-239.3 at 69.6-69.7 MiB; the
# committed kernels read 32,768 253.0-256.6 at 66.7 MiB, 65,536
# 247.9-250.4 at 66.8-66.9 MiB and 131,072 255.1-256.7 at 67.0 MiB.
_GROUP_ELEMENTS = 32_768


def _rows(node: Node) -> int:
    """A node's share of a group kernel: leaf rows or child rectangles."""
    return node.count if node.is_leaf else len(node.children)  # type: ignore[attr-defined]


class BatchRefiner:
    """Cross-query cache of per-node numeric work for one query batch.

    Caches are keyed by page id, which uniquely names a node within one
    tree; the batch APIs build a fresh refiner per call, so mutations
    between batches cannot leak stale numbers.

    **Sibling groups.** The first time the batch needs a node's numbers,
    the refiner evaluates a *group*: the node plus those of its siblings
    (other children of its parent) that are materialized and not yet
    evaluated in this batch, taken in child order, and stopping before
    ``m * rows * d`` would exceed ``_GROUP_ELEMENTS``. The requested node
    always joins; a node without a parent is a group of one. One
    ``log_joint_density_multi`` (leaves) or ``node_log_bounds_multi``
    (inner nodes) call covers the group, and every member's cache entry
    is a slice of its result. A leaf group of one skips the
    concatenation and slicing: root-leaf shards refine through it on
    every query, and the group code cost them about 10 us per leaf.

    Only materialized siblings join: decoding a stub early would read
    its page outside the counted access path (``fetch_page`` does not
    fill the frame cache, so the counted ``read`` later fetches the bytes
    again) and would decode pages a cold query never reaches. A cold
    first query therefore evaluates page by page, and groups form once
    earlier queries have loaded the tree.

    **Speculative rows.** Groups may refine siblings that no query of
    the batch then pops. On a disk tree, pages no query has reached yet
    stay stubs, so on identification traffic this is rare (0.0% of
    refined rows on 20,000 x 10-d and sharded 16,000 x 6-d data). An
    in-memory tree has no stubs, and every sibling joins: on the
    paper's data set 1 (27-d) 27-29% of the refined rows belong to
    unpopped pages, and about 26% under TIQ on a disk tree that earlier
    queries have loaded. ``QueryStats.objects_refined`` counts
    only the rows of popped pages, so these rows appear in no counter.
    Whether they cost wall time on pruning-heavy in-memory traffic is
    unresolved: TIQ(P=0.2) on data set 1 was faster in only 5 of 10
    alternated rounds.

    **Bit-identity.** Grouping changes who computes a number, never its
    value. Both kernels are elementwise over rows and add their ``d``
    per-dimension planes one at a time, in the same order at every
    shape (a reduction would switch to pairwise summation for a single
    output element, so a 1-row leaf or 1-child node would differ alone),
    so a row's result does not depend on which other rows share the
    call. Each member's row maxima and denominator masses are reduced
    over that member's own slice, and numpy's last-axis pairwise
    summation of a contiguous slice matches the 1-d sum over that
    member's own row.
    """

    def __init__(self, tree, queries: Sequence) -> None:
        for q in queries:
            if q.dims != tree.dims:
                raise ValueError(
                    f"query is {q.dims}-d, tree is {tree.dims}-d"
                )
        self.tree = tree
        self.rule = tree.sigma_rule
        self.q_mu = np.vstack([q.mu for q in queries])
        self.q_sigma = np.vstack([q.sigma for q in queries])
        # The most rows (leaf rows or child rectangles) one group holds.
        self._group_rows = _GROUP_ELEMENTS // (len(queries) * tree.dims)
        self._bounds_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Per-query scale shifts (registered by each SearchState at init)
        # plus, per leaf page, every batch query's density row, row
        # maximum and scaled denominator mass.
        self._shifts: list[float] = [0.0] * len(queries)
        self._leaf_extras: dict[
            int,
            tuple[list[np.ndarray], list[float], list[float], list[float]],
        ] = {}
        # Every query's bounds over the directory's leaf rectangles once
        # a query of the batch takes the census (see leaf_hull_bounds).
        self._census: tuple[np.ndarray, np.ndarray] | None = None

    def register_shift(self, query_index: int, shift: float) -> None:
        """Record a query's scale shift so per-page denominator masses can
        be precomputed on its behalf; called by ``SearchState.__init__``."""
        self._shifts[query_index] = shift

    def _sibling_group(self, node: Node, evaluated: dict) -> list[Node]:
        """``node`` followed by its materialized siblings whose page ids
        are not in ``evaluated``, in child order, within the row budget."""
        parent = node.parent
        if parent is None:
            return [node]
        group = [node]
        room = self._group_rows - _rows(node)
        for sibling in parent.children:
            if (
                sibling is node
                or sibling.page_id in evaluated
                or not sibling.is_materialized
            ):
                continue
            room -= _rows(sibling)
            if room < 0:
                break
            group.append(sibling)
        return group

    def leaf_log_densities(self, leaf: LeafNode) -> np.ndarray:
        """``(m, n)`` Lemma-1 log densities of the leaf's entries, one row
        per batch query: the rows of :meth:`leaf_extras`, stacked into a
        new array on every call. Nothing in the package calls this; it
        is kept for the tests and for the end-to-end benchmark's layer
        tracer, which wraps it by name."""
        return np.vstack(self.leaf_extras(leaf)[0])

    def leaf_extras(
        self, leaf: LeafNode, siblings: bool = True
    ) -> tuple[list[np.ndarray], list[float], list[float], list[float]]:
        """Per-query expansion data for a leaf, one list entry per batch
        query: ``(log_density_rows, row_maxima, scaled_masses,
        shifts_used)``.

        Computed for *all* queries, and for the leaf's whole sibling
        group (the leaf alone with ``siblings=False``, as the census
        asks), in a handful of array operations the first time any query
        touches the page; ``SearchState`` indexes the lists directly on
        every later expansion. Each scaled mass is bit-identical to
        ``np.sum(np.exp(np.clip(row - shift, _UNDERFLOW, _CAP)))`` for
        the shift registered at state construction (elementwise ops are
        rowwise-independent and numpy's last-axis pairwise summation
        matches the 1-d case); the consumer must recompute the mass
        itself iff its current shift no longer equals its
        ``shifts_used`` entry (a query that re-anchored mid-traversal —
        rare by the 300-nat gap).
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
            else:
                columns = [member.arrays() for member in group]  # type: ignore[attr-defined]
                mu = np.concatenate([c[0] for c in columns])
                sigma = np.concatenate([c[1] for c in columns])
            matrix = log_joint_density_multi(
                mu, sigma, self.q_mu, self.q_sigma, self.rule
            )
            scaled = matrix - np.asarray(self._shifts)[:, None]
            np.clip(scaled, _UNDERFLOW, _CAP, out=scaled)
            np.exp(scaled, out=scaled)
            shifts = list(self._shifts)
            if len(group) == 1:
                self._leaf_extras[leaf.page_id] = (
                    list(matrix),  # row views, indexable without numpy dispatch
                    matrix.max(axis=1).tolist(),
                    scaled.sum(axis=1).tolist(),
                    shifts,
                )
            else:
                sizes = [len(c[0]) for c in columns]
                # Maxima are exact under any reduction order, so one call
                # serves the whole group; masses are summed per member.
                maxima = np.maximum.reduceat(
                    matrix, list(accumulate(sizes[:-1], initial=0)), axis=1
                ).T.tolist()
                rows = list(matrix)
                stop = 0
                for member, size, member_max in zip(group, sizes, maxima):
                    start, stop = stop, stop + size
                    self._leaf_extras[member.page_id] = (
                        [row[start:stop] for row in rows],
                        member_max,
                        scaled[:, start:stop].sum(axis=1).tolist(),
                        shifts,
                    )
            extras = self._leaf_extras[leaf.page_id]
        return extras

    def leaf_hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` Lemma 2-3 bounds of every leaf's rectangle
        (:attr:`~repro.gausstree.tree.LeafDirectory.bounds`), each of
        shape ``(m, leaves)`` in the directory's leaf order: what a
        k-MLIQ's census reads (:func:`~repro.gausstree.mliq.census_share`).

        Computed for every query of the batch the first time any query
        asks, in ``node_log_bounds_multi`` calls of as many queries as
        keep ``queries * leaves * d`` within ``_GROUP_ELEMENTS``, and at
        least one (identify-disk's 512 leaves x 10-d take one call per
        six queries). The kernel is rowwise independent, so each query's
        bounds are the bits a one-query call gives.
        """
        if self._census is None:
            bounds = self.tree.leaf_directory().bounds
            step = max(1, _GROUP_ELEMENTS // max(1, bounds[0].size))
            parts = [
                node_log_bounds_multi(
                    *bounds,
                    self.q_mu[start : start + step],
                    self.q_sigma[start : start + step],
                    self.rule,
                )
                for start in range(0, len(self.q_mu), step)
            ]
            lowers, uppers = zip(*parts)
            self._census = (np.vstack(lowers), np.vstack(uppers))
        return self._census

    def child_log_bounds(
        self, inner: InnerNode
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` hull bounds of the node's children, each of
        shape ``(m, k)``; computed once per inner node per batch, together
        with the node's sibling group, or sliced from the census's
        bounds (:meth:`leaf_hull_bounds`) for a leaf parent once a query
        of the batch has taken the census."""
        cached = self._bounds_cache.get(inner.page_id)
        if cached is None and self._census is not None:
            # A census has bounded every leaf for the batch: a leaf
            # parent's children are a slice of that, which the directory
            # lists last first.
            span = self.tree.leaf_directory().spans.get(inner.page_id)
            if span is not None:
                lower, upper = self._census
                cached = self._bounds_cache[inner.page_id] = (
                    lower[:, span[0] : span[1]][:, ::-1],
                    upper[:, span[0] : span[1]][:, ::-1],
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
                    lower[:, start:stop],
                    upper[:, start:stop],
                )
            cached = self._bounds_cache[inner.page_id]
        return cached


def _run_many(
    tree, queries: Sequence, search: Callable
) -> tuple[list[list[RowMatch]], QueryStats]:
    """The loop both drivers share: one refiner and one search state per
    query, then ``search(state, query)`` for each query in order."""
    if not queries:
        return [], QueryStats()
    refiner = BatchRefiner(tree, [query.q for query in queries])
    # Build every state first: each registers its scale shift with the
    # refiner, so the first page any query expands precomputes masses
    # that are valid for the whole batch.
    states = [
        SearchState(tree, query.q, refiner, index)
        for index, query in enumerate(queries)
    ]
    results: list[list[RowMatch]] = []
    total = QueryStats()
    for query, state in zip(queries, states):
        matches, stats = search(state, query)
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
    only the wall time changes (shared page cache, shared vectorized
    refinement). On a root leaf or a two-level tree every query sweeps
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
