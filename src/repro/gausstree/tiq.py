"""Threshold identification queries on the Gauss-tree (Section 5.2.3).

Follows the paper's Figure 5: the traversal maintains, next to the
priority queue, a candidate set of refined objects and the running bounds
of the Bayes denominator. A candidate is *rejected* as soon as its best
possible posterior (density over the denominator's lower bound) falls
below the threshold; it is *accepted* once its worst possible posterior
(density over the denominator's upper bound) reaches the threshold. The
traversal stops when no unexplored subtree can still contain a qualifying
object and every candidate is decided.

Both denominator bounds are monotone (the lower bound only grows, the
upper only shrinks as nodes are expanded), so reject/accept decisions are
final and the algorithm terminates — at the latest when the queue is
drained, at which point the denominator is exact. With the default
``tolerance = 0.0`` the result set is therefore *identical* to the
sequential scan's, which the property tests assert.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

from repro.core.queries import Match, QueryStats, ThresholdQuery
from repro.gausstree.search import SearchState

__all__ = ["gausstree_tiq", "search_tiq"]


def gausstree_tiq(
    tree,
    query: ThresholdQuery,
    tolerance: float = 0.0,
    probability_tolerance: float | None = None,
) -> tuple[list[Match], QueryStats]:
    """Answer a TIQ on a Gauss-tree.

    A one-query :func:`~repro.gausstree.batch.gausstree_tiq_many` call.

    ``tolerance`` is the paper's optional accuracy specification for the
    *decision*: a candidate whose posterior interval straddles the
    threshold but is narrower than ``tolerance`` is classified by the
    interval midpoint instead of forcing further page reads. ``0.0``
    gives the exact answer set.

    ``probability_tolerance`` additionally bounds the width of every
    *reported* posterior (the paper's "report the actual probabilities
    ... at a specified accuracy", Section 5.2.3 last paragraph); ``None``
    reports best-effort interval midpoints without extra page reads.
    """
    from repro.gausstree.batch import gausstree_tiq_many

    (matches,), stats = gausstree_tiq_many(
        tree, [query], tolerance, probability_tolerance
    )
    return matches, stats


def search_tiq(
    state: SearchState,
    query: ThresholdQuery,
    tolerance: float,
    probability_tolerance: float | None,
) -> tuple[list[Match], QueryStats]:
    """Run one TIQ's best-first traversal over its prepared state."""
    state.tree.store.begin_query()
    started = time.perf_counter()
    p_theta = query.p_theta

    # Min-heap by log density: rejections always happen at the low end
    # because the denominator lower bound grows monotonically. Items are
    # (log_density, tiebreak, leaf, row) — the pfv is only fetched for
    # the final classification; tiebreaks are unique, so heap
    # comparisons never reach the leaf.
    candidates: list[tuple] = []
    # Max-heap (negated) of candidates not yet decided-accept — the
    # undecidedness test needs the *largest* straddling candidate
    # (widest posterior interval), which the min-heap cannot expose.
    # Accept decisions are final (the denominator upper bound only
    # shrinks), so accepted candidates are popped permanently, mirroring
    # the reject pops above.
    undecided_heap: list[float] = []
    tiebreak = itertools.count()
    max_candidate_log = -math.inf

    while state.has_active_nodes:
        denom_low = state.denominator_low
        denom_high = state.denominator_high
        # Drop candidates whose best possible posterior is already below
        # the threshold (Figure 5's "delete unnecessary candidates").
        while candidates and _upper(state, candidates[0][0], denom_low) < p_theta:
            heapq.heappop(candidates)
        undecided = _any_undecided(
            state, undecided_heap, denom_low, denom_high, p_theta, tolerance
        )
        top_can_qualify = (
            _upper(state, state.top_log_upper, denom_low) >= p_theta
        )
        needs_probability = (
            probability_tolerance is not None
            and bool(candidates)
            and _upper(state, max_candidate_log, denom_low)
            - _lower(state, max_candidate_log, denom_high)
            > probability_tolerance
        )
        if not top_can_qualify and not undecided and not needs_probability:
            break
        expanded = state.pop_and_expand()
        if expanded is None:
            continue
        leaf, log_dens, best = expanded
        # Unlike MLIQ, every entry stays a candidate until the denominator
        # bounds decide it, so there is nothing to prefilter: the page's
        # densities enter both heaps as plain floats.
        for i, ld in enumerate(log_dens.tolist()):
            heapq.heappush(candidates, (ld, next(tiebreak), leaf, i))
            heapq.heappush(undecided_heap, -ld)
        if best > max_candidate_log:
            max_candidate_log = best

    matches = _classify(state, candidates, p_theta, tolerance)
    return matches, state.query_stats(started)


def _upper(state: SearchState, log_density: float, denom_low: float) -> float:
    """Best possible posterior of a density given the denominator bounds."""
    if log_density == -math.inf:
        return 0.0
    if denom_low <= 0.0:
        return 1.0
    return state.scaled_density(log_density) / denom_low


def _lower(state: SearchState, log_density: float, denom_high: float) -> float:
    """Worst possible posterior of a density."""
    if denom_high <= 0.0:
        return 0.0
    return state.scaled_density(log_density) / denom_high


def _any_undecided(
    state: SearchState,
    undecided_heap: list[float],
    denom_low: float,
    denom_high: float,
    p_theta: float,
    tolerance: float,
) -> bool:
    """Does any candidate still straddle the threshold undecidedly?

    A candidate is decided once its posterior interval lies entirely on
    one side of ``p_theta`` (accept/reject) or, with a positive
    ``tolerance``, once the interval is narrower than ``tolerance``
    (classified by midpoint). Because the posterior bounds and the
    interval width ``w * (1/denom_low - 1/denom_high)`` are all monotone
    *increasing* in the candidate's density ``w``, the candidates sort
    into three bands — rejected below, straddling in the middle, accepted
    above — and the *widest* straddling interval belongs to the largest
    straddling candidate. Testing the smallest candidate (as an earlier
    revision did) lets the traversal stop while large candidates still
    straddle with intervals far wider than ``tolerance``.

    ``undecided_heap`` holds negated log densities (a max-heap).
    Accept decisions are final — the denominator upper bound only
    shrinks, so posterior lower bounds only grow — which makes the
    accepted pops below permanent, keeping the whole bookkeeping
    O(n log n) over a query.
    """
    while undecided_heap:
        top = -undecided_heap[0]  # largest not-yet-accepted candidate
        if _lower(state, top, denom_high) >= p_theta:
            heapq.heappop(undecided_heap)  # decided-accept, final
            continue
        hi = _upper(state, top, denom_low)
        if hi < p_theta:
            return False  # it (and everything below) is decided-reject
        if tolerance > 0.0:
            width = hi - _lower(state, top, denom_high)
            if width <= tolerance:
                return False  # widest straddler classifiable by midpoint
        return True
    return False  # no candidates, or every candidate decided-accept


def _classify(
    state: SearchState,
    candidates: list[tuple],
    p_theta: float,
    tolerance: float,
) -> list[Match]:
    denom_low = state.denominator_low
    denom_high = state.denominator_high
    denom_mid = state.denominator_mid
    n = max(1, len(state.tree))
    matches: list[Match] = []
    for item in candidates:
        log_density = item[0]
        if denom_mid > 0.0:
            lo = _lower(state, log_density, denom_high)
            hi = _upper(state, log_density, denom_low)
            mid = min(1.0, state.scaled_density(log_density) / denom_mid)
        else:
            lo = hi = mid = 1.0 / n  # all densities underflowed: uniform
        if lo >= p_theta:
            accepted = True
        elif hi < p_theta:
            accepted = False
        else:
            # Interval straddles the threshold; only reachable when a
            # positive tolerance allowed the traversal to stop early.
            accepted = tolerance > 0.0 and mid >= p_theta
        if accepted:
            matches.append(Match(item[2].entry_at(item[3]), log_density, mid))
    matches.sort(key=lambda m: -m.probability)
    return matches
