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
row)`` references whose pfv is only fetched for the final result set.
The selected candidates — and hence matches and posteriors — are those
of the paper's per-entry loop, which the parity property tests assert
against the sequential scan.

**The sweep.** Where the hulls do not separate the data (low-dimensional
uniform data, a ranked top-5, a 1e-9 posterior tolerance) the traversal
pops nearly every page, one page at a time, and costs a multiple of a
sequential scan of the same rows. So at pop checkpoints it asks, from
what it already knows, whether it is still pruning: while at least
three quarters of the tree's rows are still queued, it measures the
share of the queued rows that sit under nodes it must still expand —
nodes whose upper bound beats the current k-th density, or whose upper
mass is above the tolerance times the denominator's lower bound. When
that share reaches
``_SWEEP_SHARE`` the query gives up on the traversal and answers as the
scan does: one row of Lemma-1 densities over the tree's contiguous leaf
stack (:meth:`~repro.gausstree.tree.GaussTree.leaf_stack`), the top k
from it and one exact denominator. The answer is exact; every page still
under the queue counts as accessed and every row as refined, and
``QueryStats.swept`` counts the query.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np

from repro.core.queries import Match, MLIQuery, QueryStats
from repro.core.scan import top_k_order
from repro.gausstree.search import _CAP, _UNDERFLOW, SearchState

__all__ = ["gausstree_mliq", "search_mliq"]

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
    ``(matches, stats)`` with matches ordered by descending posterior.
    Ranking is exact; posteriors are exact within ``tolerance``.
    """
    from repro.gausstree.batch import gausstree_mliq_many

    (matches,), stats = gausstree_mliq_many(tree, [query], tolerance)
    return matches, stats


def search_mliq(
    state: SearchState, query: MLIQuery, tolerance: float
) -> tuple[list[Match], QueryStats]:
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
    while heap:
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


def _sweep(state: SearchState, k: int) -> list[Match]:
    """Answer the query as the scan does, from one density row over the
    tree's leaf stack (:func:`sweep_matches`).

    Every page still under the queue is read through the store, as the
    pops it replaces would have, so the query's page accesses are the
    tree's node pages; every row counts as refined.
    """
    read = state._read
    pending = [item[3] for item in state._heap]
    while pending:
        node = pending.pop()
        read(node.page_id)
        if not node.is_leaf:
            pending.extend(node.children)  # type: ignore[attr-defined]
    state.objects_refined = len(state.tree)
    return sweep_matches(
        state.tree, state.refiner.stack_log_densities(state.query_index), k
    )


def sweep_matches(tree, row: np.ndarray, k: int) -> list[Match]:
    """The k-MLIQ answer from one query's density row over the tree's
    leaf stack: the top k of it and one exact denominator. The finish of
    both sweeps, a traversal's (:func:`_sweep`) and a two-level tree's
    (:func:`~repro.gausstree.batch.gausstree_mliq_many`)."""
    order = top_k_order(row, k)
    top = row[order[0]]
    if top == -math.inf:
        # Degenerate: every density underflowed — the scan's uniform
        # posterior (Property 3).
        probabilities = [1.0 / len(row)] * len(order)
    else:
        # Terms below exp(_UNDERFLOW) cannot move a sum that holds
        # exp(0) = 1; flooring them keeps exp out of subnormal range.
        scaled = row - top
        np.maximum(scaled, _UNDERFLOW, out=scaled)
        np.exp(scaled, out=scaled)
        probabilities = (
            np.exp(row[order] - top) / float(np.sum(scaled))
        ).tolist()
    return [
        Match(vector, log_density, probability)
        for vector, log_density, probability in zip(
            tree.leaf_stack().entries_at(order),
            row[order].tolist(),
            probabilities,
        )
    ]


def _assemble(
    state: SearchState, candidates: list[tuple]
) -> list[Match]:
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
        matches.append(
            Match(item[2].entry_at(item[3]), log_density, probability)
        )
    return matches

