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
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np

from repro.core.queries import Match, MLIQuery, QueryStats
from repro.gausstree.search import SearchState

__all__ = ["gausstree_mliq", "search_mliq"]


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
                denom_low = state.denominator_low
                if denom_low > 0.0:
                    width = (
                        best_w / denom_low - best_w / state.denominator_high
                    )
                    if width <= tolerance:
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

    matches = _assemble(state, candidates)
    return matches, state.query_stats(started)


def _assemble(
    state: SearchState, candidates: list[tuple]
) -> list[Match]:
    ordered = sorted(candidates, key=lambda item: (-item[0], item[1]))
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

