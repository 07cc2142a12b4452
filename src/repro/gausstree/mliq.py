"""k-most-likely identification queries on the Gauss-tree (Section 5.2.1-2).

Best-first traversal following the paper's Figure 4: a priority queue of
active nodes ordered by the hull upper bound, a candidate set of the k
densest pfv seen so far, and the stop rule "every candidate beats the top
of the queue". The extension of Section 5.2.2 then keeps popping nodes
until the denominator interval (sum approximation over the unexplored
subtrees) is tight enough to report the actual Bayes posteriors at the
requested accuracy.

Every leaf is columnar, so candidate selection is one loop over pages:
the entries beating the current k-th density are found with one numpy
comparison over the whole page, and candidates are kept as ``(leaf,
row)`` references. The answer keeps them too
(:class:`~repro.core.queries.RowMatch`): a pfv is built only for a match
some caller is handed, so a sharded merge builds the ones it keeps. The
selected candidates — and hence matches and posteriors — are those of
the paper's per-entry loop, which the parity property tests assert
against the sequential scan.

**The sweep.** Where the hulls do not separate the data (low-dimensional
uniform data, a ranked top-5, a 1e-9 posterior tolerance) the traversal
pops nearly every page, one page at a time, and costs a multiple of a
sequential scan of the same rows. Such a query answers as the scan does
instead: one row of Lemma-1 densities over the tree's contiguous leaf
stack (:meth:`~repro.gausstree.tree.GaussTree.leaf_stack`), the top k
from it and one exact denominator. The answer is exact; every page still
under the queue counts as accessed (one read of slices of the tree's
pre-order page ids, kept with the leaf hulls) and every row as refined,
and ``QueryStats.swept`` counts the query. Two decisions lead there,
both asking whether nodes must still be expanded: a node must be while
its upper bound beats the current k-th density, or while its upper mass
is above the tolerance times the denominator's lower bound.

* **The census**, before the traversal pops. A query with a finite
  tolerance on a tree of three or more levels expands the root, then
  asks the leaf hulls (:func:`census_share`): Lemmas 2-3 bound every
  leaf's rectangle (:meth:`~repro.gausstree.tree.GaussTree.leaf_hulls`,
  bounded once per batch), and the exact densities of the leaf with the
  highest upper bound, refined alone, give a k-th density and, with
  every other leaf's lower mass, the denominator's lower bound. When the
  rows under leaves that must be popped reach ``_CENSUS_SHARE`` of the
  tree's, the query sweeps at once; otherwise its traversal finds that
  leaf's densities and every leaf parent's child bounds already
  computed.
* **The checkpoints**, as the traversal pops: after ``_FIRST_CHECK``
  pops and each doubling, while at least three quarters of the tree's
  rows are still queued, it sweeps once ``_SWEEP_SHARE`` of the queued
  rows sit under nodes it must still expand. They catch a traversal the
  census kept that stops pruning, and they are the only decision of a
  rank-only query (infinite tolerance), which never takes the census.

A tree of one or two levels sweeps every k-MLIQ by its shape and never
builds a traversal (:func:`~repro.gausstree.batch.sweeps_every_mliq`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Sequence

import numpy as np

from repro.core.queries import Match, MLIQuery, QueryStats, RowMatch, built
from repro.gausstree.search import _CAP, _UNDERFLOW, SearchState

__all__ = ["census_share", "census_sweeps", "gausstree_mliq", "search_mliq"]

# The traversal asks whether it still prunes after this many pops, then
# after each doubling (32, 64, 128, ...), while at least _QUEUED_SHARE
# of the tree's rows are still queued; it sweeps once _SWEEP_SHARE of
# the queued rows sit under nodes it must still expand. A sweep evaluates
# every row again, so it cannot pay where the pops so far have covered
# much of the tree: the queued-rows guard keeps small trees on their
# traversal. Chosen on a 2-vCPU host, configurations interleaved round
# by round in one process, singleton wall p50 in ms (swept share of the
# queries):
#   20,000 x 10-d uniform disk tree, MLIQ(q, 5) at 1e-9, 60 queries x 3:
#     no sweep 18.13; first check 8: 7.27, 16: 8.42, 32: 10.09 (60 of
#     60), 64: 12.52; at 32 with share 0.9: 9.91, with 0.99: 10.21 (46).
#   data set 1 rank-only 1-MLIQ, 50 queries x 3-4, three sessions: no
#     sweep 3.94 / 5.38 / 4.96; first check 8: 6.30 (50 of 50), 16: 5.84
#     (35), 24: 5.21 (9), 32: 4.17 / 5.53 / 5.24 (3), 48: 5.08 (0), 64:
#     4.96 (0); at 32 with share 0.99: 5.37 / 4.90 (2). Its 3 swept
#     queries took 8.8-11.0 swept against 7.3-9.2 traversed.
#   data set 1 MLIQ(q, 5) at 1e-9: no sweep 41.54; 8: 8.13, 16: 8.79,
#     32: 10.72 (49 of 50). Data set 2 (20,000 x 10-d) likewise: no
#     sweep 14.82; 8: 6.54, 16: 6.95, 32: 9.17, 64: 12.64.
#   Queued-rows guard, first check 32, warm disk trees of n x 10-d
#     uniform rows, MLIQ(q, 5) at 1e-9, 50 queries x 4: n = 2,000 (69
#     pages): no sweep 2.30, guard 0.5 2.62 (41 of 50), 0.75 2.59 (0);
#     n = 4,000 (136 pages): 4.50, 4.16 (50), 4.58 (50); n = 8,000 (271
#     pages): 8.43, 6.46 (50), 5.93 (50). The shapes above sweep the
#     same queries under either guard.
# 32 is the earliest doubling at which the pruning workload sweeps almost
# nothing; earlier checkpoints slow it, later ones give the gain away.
_FIRST_CHECK = 32
_QUEUED_SHARE = 0.75
_SWEEP_SHARE = 0.95

# A query whose census share (census_share) reaches this sweeps right
# after the root's expansion; a share above 1 (math.inf) switches the
# census off. Chosen on a 2-vCPU host (Python 3.11.7, numpy 2.4.6) over
# in-memory trees, 40 identification queries MLIQ(q, 5) at 1e-9 unless
# stated. Census shares, median [min]: 20,000 x 10-d uniform 0.998
# [0.990], data set 2 0.998 [0.984], 2,000 x 10-d uniform 1.000
# [0.969]; data set 1 0.855 [0.383], and MLIQ(q, 1) 0.417 [0.011];
# clustered defaults (20,000 x 10-d) 0.875 [0.448]; tight clusters
# (cluster std 0.02, sigmas 0.003-0.01) 0.053 [0.051]. Singleton wall
# p50 in ms, median of 6 rounds, the census off (math.inf: checkpoints
# only) and each threshold interleaved round by round in one process
# (swept queries of 40):
#   data set 1: off 7.95 (40); 0.3: 6.49, 0.5: 6.55, 0.7: 6.65, 0.9:
#     7.10 (40 each).
#   data set 1 MLIQ(q, 1): off 9.84 (3); 0.3: 6.25 (29), 0.5: 6.48 (18),
#     0.7: 6.30 (7), 0.9: 8.07 (5).
#   clustered: off 4.44 (32); 0.3: 3.55 (40), 0.5: 3.21 (38), 0.7: 3.48
#     (37), 0.9: 3.94 (33).
#   data set 2: off 5.57; 0.3 to 0.9: 3.71-3.88 (40 each).
#   2,000 x 10-d: off 2.00 (0, the queued-rows guard); 0.3 to 0.9:
#     1.10-1.19 (40 each).
#   tight clusters: off 1.53; 0.3 to 0.9: 1.52-2.03 (0 each, within the
#     rounds' noise: the census costs its bounds, and the traversal
#     reuses them for the leaf parents it pops).
# Thresholds from 0.3 to 0.7 read alike; 0.5 is the middle of that flat
# stretch. At 0.9 and above (the checkpoints' 0.95) data set 1 keeps
# queries on traversals that the checkpoints then sweep anyway.
_CENSUS_SHARE = 0.5


def gausstree_mliq(
    tree, query: MLIQuery, tolerance: float = 1e-9
) -> tuple[list[Match], QueryStats]:
    """Answer a k-MLIQ on a Gauss-tree.

    A one-query :func:`~repro.gausstree.batch.gausstree_mliq_many` call.

    Parameters
    ----------
    tree:
        A :class:`~repro.gausstree.tree.GaussTree`.
    query:
        The k-MLIQ specification.
    tolerance:
        Maximum acceptable width of any reported posterior's interval —
        the paper's "user's specification of exactness" (Section 5.2.2).
        ``0.0`` forces exact posteriors (drains the queue's contribution
        entirely; ranking alone never needs that).

    Returns
    -------
    ``(matches, stats)`` with matches ordered by descending posterior,
    built (unlike the batch call's row references).
    Ranking is exact; posteriors are exact within ``tolerance``.
    """
    from repro.gausstree.batch import gausstree_mliq_many

    (matches,), stats = gausstree_mliq_many(tree, [query], tolerance)
    return built(matches), stats


def search_mliq(
    state: SearchState, query: MLIQuery, tolerance: float
) -> tuple[list[RowMatch], QueryStats]:
    """Run one k-MLIQ's best-first traversal over its prepared state."""
    state.tree.store.begin_query()
    started = time.perf_counter()

    # Min-heap of the k best candidates as (log_density, tiebreak, leaf,
    # row); tiebreaks are unique, so heap comparisons never reach the leaf.
    candidates: list[tuple] = []
    tiebreak = itertools.count()
    # The densest candidate's scaled density, memoized across the drain
    # phase (it only moves when the heap or the scale shift changes).
    heap_rev = 0
    best_w = -1.0
    best_w_key: tuple | None = None

    k = query.k
    heap = state._heap  # the queue list itself: stable across pops
    check_at = _FIRST_CHECK
    swept = False
    root = state.tree.root
    if (
        heap
        and math.isfinite(tolerance)
        and _CENSUS_SHARE <= 1.0
        and not root.is_leaf
    ):
        # The census (module docstring): expand the root, then let the
        # leaf hulls decide on a tree of three or more levels.
        state.pop_and_expand()
        if not root.children[0].is_leaf:  # type: ignore[attr-defined]
            swept = census_sweeps(
                state.refiner, state.query_index, k, tolerance
            )
    while heap and not swept:
        if len(candidates) >= k:
            kth_log_density = candidates[0][0]
            if kth_log_density >= -heap[0][0]:
                # The k best are final (Figure 4's stop rule); now only the
                # denominator may still need tightening (Section 5.2.2):
                # every candidate shares the denominator interval, so the
                # widest posterior interval belongs to the densest
                # candidate, whose scaled density is memoized as best_w.
                key = (heap_rev, state.shift)
                if key != best_w_key:
                    best_w = max(
                        state.scaled_density(item[0]) for item in candidates
                    )
                    best_w_key = key
                state.settle_bounds()
                denom_low = state.denominator_low
                if denom_low > 0.0:
                    width = (
                        best_w / denom_low - best_w / state.denominator_high
                    )
                    if width <= tolerance:
                        break
        if state.nodes_expanded >= check_at:
            check_at *= 2
            if _pruning_failed(state, candidates, k, tolerance):
                swept = True
                break
        expanded = state.pop_and_expand()
        if expanded is None:
            continue
        leaf, log_dens, best = expanded
        if len(candidates) >= k and best <= candidates[0][0]:
            # The page's densest entry cannot beat the current k-th (the
            # replacement test below is strict), so no entry can change
            # the heap: skip the scan entirely. The page still contributed
            # its denominator mass inside pop_and_expand.
            continue
        lds = log_dens.tolist()
        i = 0
        while len(candidates) < k and i < len(lds):
            heapq.heappush(candidates, (lds[i], next(tiebreak), leaf, i))
            i += 1
        if i < len(lds):
            # One numpy comparison prefilters the page: only entries
            # beating the k-th density when the page was reached can ever
            # enter the heap (the k-th bound only grows and the test below
            # is strict), and each survivor is re-checked against the live
            # bound — so the heap evolves exactly as under a per-entry loop.
            better = np.flatnonzero(log_dens[i:] > candidates[0][0]) + i
            for j in better.tolist():
                ld = lds[j]
                if ld > candidates[0][0]:
                    heapq.heapreplace(candidates, (ld, next(tiebreak), leaf, j))
        heap_rev += 1  # the scanned page may have moved the candidate set

    if swept:
        matches = _sweep(state, k)
    else:
        matches = _assemble(state, candidates)
    stats = state.query_stats(started)
    stats.swept = int(swept)
    return matches, stats


def census_sweeps(
    refiner, query_index: int, k: int, tolerance: float
) -> bool:
    """Whether the census sends one k-MLIQ on a tree of three or more
    levels to the sweep: its :func:`census_share` reaches
    ``_CENSUS_SHARE``. What a query runs and what ``explain()`` prices
    (``GaussTreeBackend.estimate``) both ask this."""
    return census_share(refiner, query_index, k, tolerance) >= _CENSUS_SHARE


def census_share(refiner, query_index: int, k: int, tolerance: float) -> float:
    """The share of the tree's rows under leaves that one k-MLIQ's
    traversal would have to pop, as far as the leaf hulls tell.

    Reads the batch's bounds over every leaf's rectangle
    (:meth:`~repro.gausstree.batch.BatchRefiner.leaf_hull_bounds`) and
    refines the leaf with the highest upper bound, the first leaf a
    traversal pops, through ``leaf_extras`` as a group of one: a sweep
    reads none of its siblings, and a traversal finds its densities
    cached and refines the siblings it pops as a group of their own (a
    row's bits do not depend on its group). Its k-th density stands in
    for the k-th candidate's (every leaf must be popped while it holds
    fewer than k rows), and its exact terms plus every other leaf's
    ``count * N_`` bound the denominator from below (Section 5.2). A
    leaf must be popped under :func:`_pruning_failed`'s two criteria:
    its upper bound beats the k-th density, or its upper mass
    ``count * N^`` is above ``tolerance`` times that lower bound. Sums
    are taken in log space, so the share does not depend on a state's
    scale shift, and everything read is the query's own row, so it does
    not depend on the batch either.
    """
    hulls = refiner.tree.leaf_hulls()
    lower, upper = refiner.leaf_hull_bounds()
    lower = lower[query_index]
    upper = upper[query_index]
    best = int(np.argmax(upper))
    row = refiner.leaf_extras(hulls.leaves[best], siblings=False)[0][
        query_index
    ]
    kth = float(np.partition(row, -k)[-k]) if len(row) >= k else -math.inf
    log_counts = hulls.log_counts
    terms = log_counts + lower
    terms[best] = -math.inf  # the refined leaf adds its exact terms
    terms = np.concatenate((terms, row))
    top = float(terms.max())
    if math.isfinite(top):
        terms -= top
        np.exp(terms, out=terms)
        log_low = top + math.log(float(terms.sum()))
    else:
        log_low = top
    log_floor = math.log(tolerance) + log_low if tolerance > 0.0 else -math.inf
    must = upper > kth
    must |= log_counts + upper > log_floor
    return int(hulls.counts[must].sum()) / len(refiner.tree)


def _pruning_failed(
    state: SearchState, candidates: list[tuple], k: int, tolerance: float
) -> bool:
    """Whether the traversal should stop popping and sweep instead.

    Read-only: decided from the queue, the current k-th density and the
    denominator's lower bound. A queued node must still be expanded when
    its upper bound beats the k-th density (every node, before k
    candidates exist) or when its upper mass, ``count * exp(upper)`` on
    the state's scale, is above ``tolerance`` times that lower bound.
    """
    n_rows = len(state.tree)
    queued = n_rows - state.objects_refined  # rows under queued nodes
    if queued < _QUEUED_SHARE * n_rows:
        return False
    kth = candidates[0][0] if len(candidates) >= k else -math.inf
    floor = (
        math.inf
        if math.isinf(tolerance)
        else tolerance * state.denominator_low
    )
    shift = state.shift
    must = 0
    for neg_upper, _, _, _, count in state._heap:
        upper = -neg_upper
        if upper > kth:
            must += count
        else:
            delta = upper - shift
            mass = count * math.exp(delta) if delta <= _CAP else math.inf
            if mass > floor:
                must += count
    return must >= _SWEEP_SHARE * queued


def _sweep(state: SearchState, k: int) -> list[RowMatch]:
    """Answer the query as the scan does, from one density row over the
    tree's leaf stack (:func:`sweep_matches`).

    Every page still under the queue is read through the store in one
    ``read_many``, in the order the pops it replaces would have read
    them: the queued nodes from the last heap entry to the first, each
    with its subtree in :meth:`~repro.gausstree.tree.GaussTree.nodes`
    pre-order, one slice of the hull stack's page ids
    (:class:`~repro.gausstree.tree.LeafHulls`). So the query's page
    accesses are the tree's node pages, and every row counts as refined.
    """
    hulls = state.tree.leaf_hulls()
    page_ids, subtrees = hulls.page_ids, hulls.subtrees
    pages: list[int] = []
    for item in reversed(state._heap):
        start, stop = subtrees[item[3].page_id]
        pages += page_ids[start:stop]
    state.tree.store.read_many(pages)
    state.objects_refined = len(state.tree)
    index = state.query_index
    rows = state.refiner.stack_log_densities()[index : index + 1]
    return sweep_matches(state.tree, rows, [k])[0]


def sweep_matches(
    tree, rows: np.ndarray, ks: Sequence[int]
) -> list[list[RowMatch]]:
    """The k-MLIQ answers from ``(m, n)`` density rows over the tree's
    leaf stack, one row per query with its k in ``ks``: each the top k
    of its row and one exact denominator, found in one array pass for
    the rows that share a k (a batch of mixed k takes one pass per k).
    The finish of both sweeps: a two-level tree's batch
    (:func:`~repro.gausstree.batch.gausstree_mliq_many`) and, as its
    one-row case, a traversal's (:func:`_sweep`). Every step works row
    by row, so an answer has the bits its one-row call gives.

    The top k are :func:`~repro.core.scan.top_k_order`'s: a row-wise
    partition finds each row's k-th largest density, and one ``lexsort``
    orders the entries at least that dense by row, by descending density
    and then by position, so ties keep the full sort's order.
    """
    if len(set(ks)) > 1:
        answers: list[list[RowMatch]] = [[] for _ in ks]
        for k in set(ks):
            members = [i for i, each in enumerate(ks) if each == k]
            for i, matches in zip(
                members, sweep_matches(tree, rows[members], [k] * len(members))
            ):
                answers[i] = matches
        return answers
    m, n = rows.shape
    k = min(ks[0], n)  # k = n: the whole row, in the full sort's order
    parted = np.partition(rows, n - k, axis=1)
    flat = (rows >= parted[:, n - k, np.newaxis]).ravel().nonzero()[0]
    values = rows.take(flat)
    owner = flat // n
    order = np.lexsort((flat, -values, owner))
    flat, values = flat[order], values[order]
    if flat.size > m * k:
        # Ties at some row's k-th density: keep each row's first k.
        keep = np.arange(flat.size) - np.searchsorted(owner, owner) < k
        flat, values = flat[keep], values[keep]
    values = values.reshape(m, k)
    top = values[:, :1]
    # A row whose every density underflowed answers with the scan's
    # uniform posterior (Property 3); a zero shift keeps it finite.
    uniform = None
    if -math.inf in top.ravel().tolist():
        uniform = top[:, 0] == -math.inf
        top = np.where(uniform[:, np.newaxis], 0.0, top)
    terms = np.exp(values - top)
    # Terms below exp(_UNDERFLOW) cannot move a sum that holds
    # exp(0) = 1; flooring them keeps exp out of subnormal range. The
    # partition's buffer, still hot in cache, takes them.
    scaled = np.subtract(rows, top, out=parted)
    np.maximum(scaled, _UNDERFLOW, out=scaled)
    np.exp(scaled, out=scaled)
    probabilities = terms / scaled.sum(axis=1, keepdims=True)
    if uniform is not None:
        probabilities[uniform] = 1.0 / n
    matches = [
        RowMatch(leaf, i, log_density, probability)
        for (leaf, i), log_density, probability in zip(
            tree.leaf_stack().locate(flat % n),
            values.ravel().tolist(),
            probabilities.ravel().tolist(),
        )
    ]
    return [matches[start : start + k] for start in range(0, m * k, k)]


def _assemble(
    state: SearchState, candidates: list[tuple]
) -> list[RowMatch]:
    ordered = sorted(candidates, key=lambda item: (-item[0], item[1]))
    state.settle_bounds()
    denom = state.denominator_mid
    if math.isinf(denom):
        # Unresolved capped bounds (possible with a large tolerance, e.g.
        # the rank-only mode): report best-effort posteriors against the
        # known lower denominator bound instead of 0/inf.
        denom = state.denominator_low
    matches = []
    for item in ordered:
        log_density = item[0]
        if denom > 0.0:
            probability = min(1.0, state.scaled_density(log_density) / denom)
        else:
            # Degenerate: every density underflowed — mirror the scan's
            # "maximally indifferent" uniform posterior (Property 3).
            probability = 1.0 / max(1, len(state.tree))
        matches.append(RowMatch(item[2], item[3], log_density, probability))
    return matches

