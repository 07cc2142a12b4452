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
* for **columnar** leaves (bulk-loaded trees, format-v3 files) the
  refiner additionally precomputes, per page, every query's row maximum
  and scaled denominator mass — so expanding a columnar leaf costs a
  dictionary lookup and two float adds instead of four small-array numpy
  reductions. The per-query shifts are registered up front and the mass
  is recomputed exactly for the rare query that re-anchors its shift
  mid-traversal, keeping the accumulated sums bit-identical to the
  unbatched path.

Every query still owns its best-first traversal
(:class:`~repro.gausstree.search.SearchState`), so answer sets, posterior
guarantees and per-query logical page accounting are *identical* to the
one-at-a-time API — the tests assert match-for-match equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.queries import Match, MLIQuery, QueryStats, ThresholdQuery
from repro.core.joint import log_joint_density_multi
from repro.gausstree.hull import node_log_bounds_multi
from repro.gausstree.node import InnerNode, LeafNode
from repro.gausstree.search import _CAP, _UNDERFLOW, SearchState

__all__ = ["BatchRefiner", "gausstree_mliq_many", "gausstree_tiq_many"]


class BatchRefiner:
    """Cross-query cache of per-node numeric work for one query batch.

    Caches are keyed by page id, which uniquely names a node within one
    tree; the batch APIs build a fresh refiner per call, so mutations
    between batches cannot leak stale numbers.
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
        self._leaf_cache: dict[int, np.ndarray] = {}
        self._bounds_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Per-query scale shifts (registered by each SearchState at init)
        # plus, per columnar leaf page, the precomputed row maxima and
        # scaled denominator masses for every query in the batch.
        self._shifts: list[float] = [0.0] * len(queries)
        self._leaf_extras: dict[
            int, tuple[list[float], list[float], list[float]]
        ] = {}

    def register_shift(self, query_index: int, shift: float) -> None:
        """Record a query's scale shift so per-page denominator masses can
        be precomputed on its behalf; called by ``SearchState.__init__``."""
        self._shifts[query_index] = shift

    def leaf_log_densities(self, leaf: LeafNode) -> np.ndarray:
        """``(m, n)`` Lemma-1 log densities of the leaf's entries, one row
        per batch query; computed once per leaf per batch."""
        cached = self._leaf_cache.get(leaf.page_id)
        if cached is None:
            mu, sigma = leaf.arrays()
            cached = log_joint_density_multi(
                mu, sigma, self.q_mu, self.q_sigma, self.rule
            )
            self._leaf_cache[leaf.page_id] = cached
        return cached

    def leaf_extras(
        self, leaf: LeafNode
    ) -> tuple[list[np.ndarray], list[float], list[float], list[float]]:
        """Per-query expansion data for a columnar leaf, one list entry per
        batch query: ``(log_density_rows, row_maxima, scaled_masses,
        shifts_used)``.

        Computed for *all* queries in a handful of array operations the
        first time any query touches the page; ``SearchState`` indexes the
        lists directly on every later expansion. Each scaled mass is
        bit-identical to ``np.sum(np.exp(np.clip(row - shift, _UNDERFLOW,
        _CAP)))`` for the shift registered at state construction
        (elementwise ops are rowwise-independent and numpy's last-axis
        pairwise summation matches the 1-d case); the consumer must
        recompute the mass itself iff its current shift no longer equals
        its ``shifts_used`` entry (a query that re-anchored mid-traversal
        — rare by the 300-nat gap).
        """
        extras = self._leaf_extras.get(leaf.page_id)
        if extras is None:
            matrix = self.leaf_log_densities(leaf)
            scaled = matrix - np.asarray(self._shifts)[:, None]
            np.clip(scaled, _UNDERFLOW, _CAP, out=scaled)
            np.exp(scaled, out=scaled)
            extras = (
                list(matrix),  # row views, indexable without numpy dispatch
                matrix.max(axis=1).tolist(),
                scaled.sum(axis=1).tolist(),
                list(self._shifts),
            )
            self._leaf_extras[leaf.page_id] = extras
        return extras

    def child_log_bounds(
        self, inner: InnerNode
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` hull bounds of the node's children, each of
        shape ``(m, k)``; computed once per inner node per batch."""
        cached = self._bounds_cache.get(inner.page_id)
        if cached is None:
            mu_lo, mu_hi, sg_lo, sg_hi = inner.stacked_child_bounds()
            cached = node_log_bounds_multi(
                mu_lo, mu_hi, sg_lo, sg_hi, self.q_mu, self.q_sigma, self.rule
            )
            self._bounds_cache[inner.page_id] = cached
        return cached


def gausstree_mliq_many(
    tree, queries: Sequence[MLIQuery], tolerance: float = 1e-9
) -> tuple[list[list[Match]], QueryStats]:
    """Answer many k-MLIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``. Results are
    exactly what ``gausstree_mliq`` returns query by query; only the wall
    time changes (shared page cache, shared vectorized refinement).
    """
    from repro.gausstree.mliq import gausstree_mliq

    if not queries:
        return [], QueryStats()
    refiner = BatchRefiner(tree, [query.q for query in queries])
    # Build every state first: each registers its scale shift with the
    # refiner, so the first page any query expands precomputes masses
    # that are valid for the whole batch.
    states = [
        SearchState(tree, query.q, refiner=refiner, query_index=index)
        for index, query in enumerate(queries)
    ]
    results: list[list[Match]] = []
    total = QueryStats()
    for query, state in zip(queries, states):
        matches, stats = gausstree_mliq(tree, query, tolerance, state=state)
        results.append(matches)
        total.merge(stats)
    return results, total


def gausstree_tiq_many(
    tree,
    queries: Sequence[ThresholdQuery],
    tolerance: float = 0.0,
    probability_tolerance: float | None = None,
) -> tuple[list[list[Match]], QueryStats]:
    """Answer many TIQs in one buffer-warm pass over the tree.

    Returns ``(per-query match lists, aggregate stats)``; per-query
    semantics are identical to ``gausstree_tiq``.
    """
    from repro.gausstree.tiq import gausstree_tiq

    if not queries:
        return [], QueryStats()
    refiner = BatchRefiner(tree, [query.q for query in queries])
    states = [
        SearchState(tree, query.q, refiner=refiner, query_index=index)
        for index, query in enumerate(queries)
    ]
    results: list[list[Match]] = []
    total = QueryStats()
    for query, state in zip(queries, states):
        matches, stats = gausstree_tiq(
            tree,
            query,
            tolerance=tolerance,
            probability_tolerance=probability_tolerance,
            state=state,
        )
        results.append(matches)
        total.merge(stats)
    return results, total
