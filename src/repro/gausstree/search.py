"""Shared machinery of the Gauss-tree query algorithms (Section 5.2).

Both k-MLIQ and TIQ run a best-first traversal over a priority queue of
"active nodes" ordered by the node's upper density bound for the query
(Lemma 2 hull with query-combined sigmas), and both need running bounds on
the Bayes denominator ``sum_{w in DB} p(q|w)``:

``exact_sum  +  min_remaining  <=  denominator  <=  exact_sum + max_remaining``

where ``exact_sum`` accumulates the exactly refined leaf entries and the
``*_remaining`` terms add ``count * N_`` / ``count * N^`` for every subtree
still sitting in the queue (the sum approximation of Section 5.2).

Numerical strategy
------------------
Densities of 27-dimensional pfv span hundreds of nats, so every per-object
and per-node quantity is carried as a *log*; the three sums are maintained
in linear space after subtracting a common ``shift``. The shift starts at
the root's hull bound (an upper bound on everything in the tree) and is
re-anchored to the best exact density seen whenever the two drift more
than 300 nats apart, replaying the stored leaf densities and the queue
entries so no mass is lost. Individual scaled terms that would still
overflow (a node bound astronomically above the current scale — possible
for loose hulls in empty regions) are tracked as *capped*: while any
capped term is in a sum, that sum reports ``inf``, which every consumer
treats conservatively (upper bounds become infinite, probability lower
bounds become 0) until the offending node is popped. Ratios are
scale-invariant, so the shift cancels in every reported probability.
"""

from __future__ import annotations

import itertools
import math
import time
from heapq import heappop, heappush
from math import exp as _exp

import numpy as np

from repro.core.pfv import PFV
from repro.core.queries import QueryStats
from repro.gausstree.hull import node_log_bounds
from repro.gausstree.node import LeafNode, Node

# Imported but not called here: the end-to-end benchmark's layer tracer
# (benchmarks/e2e/workloads.py) wraps both kernels by name in this module.
from repro.core.joint import log_joint_density_batch
from repro.gausstree.hull import node_log_bounds_batch

__all__ = ["SearchState"]

# Re-anchor the shift when it drifts this many nats from the best density.
_RESCALE_GAP = 300.0
# Scaled terms above exp(_CAP) are tracked as capped rather than summed.
_CAP = 690.0
# Scaled terms below exp(_UNDERFLOW) are treated as zero. The floor sits
# inside the *normal* float64 range (exp(-700) ~ 1e-304): letting exponents
# run to the representable limit (-745) makes ``exp`` emit subnormals,
# which are ~100x slower on common FPUs and contribute nothing a 1e-12
# posterior tolerance could ever see.
_UNDERFLOW = -700.0
_NEG_INF = -math.inf


# Queue entries are flat tuples — ``(-log_upper, tiebreak, log_lower,
# node, count)`` — rather than objects: the traversal pushes and pops one
# per tree node per query, so the allocation and attribute-access savings
# are the single biggest term of the per-pop constant. The tiebreak is
# unique, so heap comparisons never reach the node. ``count`` is the
# node's count frozen at push time (no mutations mid-query).


class _BoundSum:
    """A non-negative sum of scaled terms, with overflow-capped entries.

    Terms are ``count * exp(log_value - shift)``. A term whose exponent
    exceeds the cap is counted instead of summed; while any such term is
    present :attr:`value` is ``inf`` — a valid (infinitely loose) upper
    bound. Add/remove must be called with the same shift for the same
    entry; the owning state guarantees that by rebuilding both sums on
    every shift change.

    Floating-point add/remove cycles leave an *absolute* residue of the
    order of one ulp of the largest partial sum per operation. That can
    dominate when the search descends many orders of magnitude (e.g. a
    loose root hull over 27-d data), so the sum tracks a conservative
    :attr:`drift` allowance; consumers widen their bounds by it and the
    owning state rebuilds the sums from the queue once the allowance
    becomes material.
    """

    __slots__ = ("finite", "capped", "drift")

    # One add/remove contributes at most a few ulps of the running peak.
    _ULP = 2.3e-16
    _SAFETY = 4.0

    def __init__(self) -> None:
        self.finite = 0.0
        self.capped = 0
        self.drift = 0.0

    # Precomputed _SAFETY * _ULP (exact: the factor is a power of two).
    _DRIFT_PER_OP = 4.0 * 2.3e-16

    def add(self, log_value: float, count: int, shift: float) -> None:
        delta = log_value - shift
        if delta > _CAP:
            self.capped += 1
        elif delta >= _UNDERFLOW:
            self.finite += count * _exp(delta)
            self.drift += self._DRIFT_PER_OP * abs(self.finite)

    def remove(self, log_value: float, count: int, shift: float) -> None:
        delta = log_value - shift
        if delta > _CAP:
            self.capped -= 1
        elif delta >= _UNDERFLOW:
            self.drift += self._DRIFT_PER_OP * abs(self.finite)
            self.finite -= count * _exp(delta)
            if self.finite < 0.0:  # float drift from add/remove cycles
                self.finite = 0.0

    def reset(self) -> None:
        self.finite = 0.0
        self.capped = 0
        self.drift = 0.0

    @property
    def lower_value(self) -> float:
        """A certainly-not-overestimating reading of the sum."""
        return max(0.0, self.finite - self.drift)

    @property
    def upper_value(self) -> float:
        """A certainly-not-underestimating reading of the sum."""
        return math.inf if self.capped > 0 else self.finite + self.drift


class SearchState:
    """Priority queue plus denominator bounds for one query.

    The numbers of node expansion come from ``refiner`` (a
    :class:`repro.gausstree.batch.BatchRefiner` over the query batch this
    state belongs to; a singleton query is a batch of one): leaf
    densities and child bounds are read from its cross-query cache,
    computed vectorised over every query in the batch the first time
    any of them expands the node, and ``query_index`` selects this
    state's row. Traversal order, accounting and results do not depend
    on the batch — the refiner only changes who computes the numbers.
    """

    def __init__(self, tree, q: PFV, refiner, query_index: int) -> None:
        if q.dims != tree.dims:
            raise ValueError(f"query is {q.dims}-d, tree is {tree.dims}-d")
        self.tree = tree
        self.refiner = refiner
        self.query_index = query_index
        # The refiner's per-page extras cache (a dict mutated in place,
        # never rebound), kept as an attribute for call-free lookups in
        # the leaf fast path.
        self._refiner_extras = refiner._leaf_extras
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, float, Node, int]] = []
        # Bound once: the store is fixed for the state's lifetime and
        # the per-pop access accounting sits on the hottest path.
        self._read = tree.store.read
        self.exact_sum = 0.0
        self._min_rem = _BoundSum()
        self._max_rem = _BoundSum()
        self.max_log_density = -math.inf
        self.nodes_expanded = 0
        self.objects_refined = 0
        # Stored so that a shift change can rebuild exact_sum losslessly.
        self._leaf_log_densities: list[np.ndarray] = []
        root = tree.root
        if root.count == 0:
            self.shift = 0.0
            return
        log_lower, log_upper = node_log_bounds(root.rect, q, tree.sigma_rule)
        self.shift = log_upper
        refiner.register_shift(query_index, log_upper)
        self._push(root, log_lower, log_upper)

    # -- scaling -------------------------------------------------------------

    def scaled_density(self, log_density: float) -> float:
        """An object's density on the current scale.

        Only called for refined objects, whose logs are within the rescale
        gap of the shift by construction, so the exponent is bounded.
        """
        delta = log_density - self.shift
        if delta < _UNDERFLOW:
            return 0.0
        return math.exp(min(delta, _CAP))

    def _maybe_rescale(self) -> None:
        if self.max_log_density == -math.inf:
            return
        if abs(self.shift - self.max_log_density) <= _RESCALE_GAP:
            return
        self.shift = self.max_log_density
        self.exact_sum = 0.0
        for arr in self._leaf_log_densities:
            self.exact_sum += float(
                np.sum(np.exp(np.clip(arr - self.shift, _UNDERFLOW, 0.0)))
            )
        self._min_rem.reset()
        self._max_rem.reset()
        for item in self._heap:
            n = item[4]
            self._min_rem.add(item[2], n, self.shift)
            self._max_rem.add(-item[0], n, self.shift)

    # -- queue ---------------------------------------------------------------

    def _push(self, node: Node, log_lower: float, log_upper: float) -> None:
        n = node.count
        heappush(
            self._heap,
            (-log_upper, next(self._counter), log_lower, node, n),
        )
        self._min_rem.add(log_lower, n, self.shift)
        self._max_rem.add(log_upper, n, self.shift)

    @property
    def has_active_nodes(self) -> bool:
        return bool(self._heap)

    @property
    def top_log_upper(self) -> float:
        """Upper density bound of the best unexplored subtree."""
        if not self._heap:
            return -math.inf
        return -self._heap[0][0]

    @property
    def denominator_low(self) -> float:
        """Scaled lower bound of the Bayes denominator.

        Widened by the drift allowance in the safe direction, so an
        acceptance/rejection decided against it stays correct despite
        float residue in the incremental sums. Reading it (or either
        sibling reading) changes nothing: the traversals tighten the
        sums through :meth:`settle_bounds` at their own decision points,
        so an extra reading cannot change what a query does next.
        """
        return self.exact_sum + self._min_rem.lower_value

    @property
    def denominator_high(self) -> float:
        """Scaled upper bound of the Bayes denominator (may be ``inf``)."""
        return self.exact_sum + self._max_rem.upper_value

    @property
    def denominator_mid(self) -> float:
        if self._max_rem.capped > 0:
            return math.inf
        return self.exact_sum + 0.5 * (
            self._min_rem.lower_value
            + (self._max_rem.finite + self._max_rem.drift)
        )

    def settle_bounds(self) -> None:
        """Replay the queue when a drift allowance is material.

        Material means above a millionth of the denominator's lower sum,
        or above a millionth of the sum the allowance pads. The second
        test matters once the remaining mass has shrunk by orders of
        magnitude: float residue from the large early terms then
        persists in the running sum, and only a replay removes it. A
        fresh replay's allowance is a few ulps of the sum times the
        queue length, so neither test fires again until the sum has
        shrunk by about seven more orders of magnitude. O(queue) per
        replay. A replay depends only on the queue, so settling twice in
        a row changes nothing; the traversals settle before the readings
        a decision uses.
        """
        low, high = self._min_rem, self._max_rem
        threshold = 1e-6 * (self.exact_sum + low.finite) + 1e-300
        if (
            low.drift <= threshold
            and high.drift <= threshold
            and low.drift <= 1e-6 * low.finite
            and high.drift <= 1e-6 * high.finite
        ):
            return
        low.reset()
        high.reset()
        for item in self._heap:
            n = item[4]
            low.add(item[2], n, self.shift)
            high.add(-item[0], n, self.shift)
        # A fresh replay's residue is one pass of additions, far below
        # the incremental allowance it replaces.
        length = max(1, len(self._heap))
        low.drift = _BoundSum._ULP * low.finite * length
        high.drift = _BoundSum._ULP * high.finite * length

    # -- expansion -------------------------------------------------------------

    def pop_and_expand(
        self,
    ) -> tuple[LeafNode, np.ndarray, float] | None:
        """Pop the top node; count one page access.

        Inner node: its children are pushed (their bounds tighten the
        denominator interval) and ``None`` is returned. Leaf: every stored
        pfv is refined exactly by one numpy kernel over the page's columns
        (vectorised Lemma 1) and ``(leaf, log_densities,
        max_log_density)`` is returned — the max lets callers skip pages
        that cannot improve their candidate set.
        """
        neg_upper, _, log_lower, node, n = heappop(self._heap)
        shift = self.shift
        self._min_rem.remove(log_lower, n, shift)
        self._max_rem.remove(-neg_upper, n, shift)
        self._read(node.page_id)
        self.nodes_expanded += 1
        if not node.is_leaf:
            lows, highs = self.refiner.child_log_bounds(node)
            lows = lows[self.query_index]
            highs = highs[self.query_index]
            # Inline _push with everything pre-bound: a query pushes one
            # entry per tree node, so per-child lookups add up.
            heap = self._heap
            counter = self._counter
            min_add = self._min_rem.add
            max_add = self._max_rem.add
            for child, lo, hi in zip(node.children, lows.tolist(), highs.tolist()):  # type: ignore[attr-defined]
                cn = child.count
                heappush(heap, (-hi, next(counter), lo, child, cn))
                min_add(lo, cn, shift)
                max_add(hi, cn, shift)
            return None
        leaf: LeafNode = node  # type: ignore[assignment]
        # Densities, row max and scaled mass were precomputed for the
        # whole batch on first touch; indexing the extras lists here
        # keeps a leaf expansion free of per-call numpy dispatch.
        extras = self._refiner_extras.get(leaf.page_id)
        if extras is None:
            extras = self.refiner.leaf_extras(leaf)
        qi = self.query_index
        log_dens = extras[0][qi]
        best = extras[1][qi]
        mass = extras[2][qi]
        used_shift = extras[3][qi]
        self.objects_refined += n
        max_ld = self.max_log_density
        if best > max_ld:
            max_ld = self.max_log_density = best
        # Rescale replays the arrays stored so far; append this leaf only
        # afterwards so its mass enters exact_sum exactly once. The gap
        # guard is inlined — _maybe_rescale would repeat it, and this is
        # once per leaf expansion.
        if max_ld != _NEG_INF and (
            shift - max_ld > _RESCALE_GAP or max_ld - shift > _RESCALE_GAP
        ):
            self._maybe_rescale()
            shift = self.shift
        self._leaf_log_densities.append(log_dens)
        if used_shift != shift:
            mass = float(
                np.sum(np.exp(np.clip(log_dens - shift, _UNDERFLOW, _CAP)))
            )
        self.exact_sum += mass
        if not self._heap:
            # The queue is drained, so the remaining mass is exactly 0:
            # drop the drift allowance with the terms, or it would still
            # widen the bounds and bias denominator_mid.
            self._min_rem.reset()
            self._max_rem.reset()
        return leaf, log_dens, best

    # -- accounting ------------------------------------------------------------

    def query_stats(self, started: float) -> QueryStats:
        """The query's work counters, its wall time since ``started`` and
        its modeled CPU. Every leaf page is refined by the one columnar
        kernel, so all refinements are priced at the cost model's
        vectorized rate."""
        log = self.tree.store.log
        return QueryStats(
            pages_accessed=log.pages_accessed,
            page_faults=log.page_faults,
            objects_refined=self.objects_refined,
            nodes_expanded=self.nodes_expanded,
            cpu_seconds=time.perf_counter() - started,
            io_seconds=log.io_seconds,
            modeled_cpu_seconds=self.tree.store.cost_model.modeled_cpu_seconds(
                self.objects_refined, log.pages_accessed, vectorized=True
            ),
            buffer_evictions=log.evictions,
        )
