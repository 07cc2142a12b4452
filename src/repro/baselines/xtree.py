"""The X-tree (Berchtold, Keim, Kriegel; VLDB'96) — simplified, from scratch.

The X-tree is the index the paper uses to store rectangular approximations
of the pfv for its efficiency comparison (Section 6). Its defining idea:
in high-dimensional spaces every topological split eventually produces
heavily overlapping directory rectangles, and overlapping directories make
range queries degenerate toward a full scan. The X-tree therefore measures
the overlap a pending split would create and, when it exceeds a threshold,
refuses to split — the node becomes a **supernode** of twice (or more) the
capacity that is scanned linearly instead.

This implementation subclasses the from-scratch
:class:`~repro.baselines.rtree.RStarTree` and overrides only the split
policy:

1. compute the best topological (R*) split;
2. accept it if the resulting halves' overlap fraction is below
   ``max_overlap`` (the X-tree paper suggests ~20%) and both halves are
   filled to at least ``min_fanout``;
3. otherwise extend the node into a supernode by one page worth of
   capacity. A supernode spanning ``p`` pages costs ``p`` page accesses
   per visit, which the query paths account for.

The full X-tree also tracks a split history to find overlap-free splits;
that refinement mainly postpones supernode creation and is irrelevant for
the phenomenon the reproduction needs (X-tree ~ no win over the scan for
MLIQ in 27 dimensions), so we document the simplification here rather
than modelling it.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.baselines.rect import Rect
from repro.baselines.rtree import RStarTree, _RNode
from repro.storage.pagestore import PageStore

__all__ = ["XTree"]


class XTree(RStarTree):
    """R*-tree with overlap-bounded splits and supernodes.

    Parameters
    ----------
    max_overlap:
        Maximum tolerated fraction ``overlap(left, right) / volume(union)``
        of a split; beyond it the node becomes a supernode.
    min_fanout:
        Minimum fraction of entries each split half must receive for the
        split to be *balanced* enough to be useful (the X-tree paper uses
        35%; our default 0.3 stays consistent with the R* split's 40%
        minimum fill, which on an overflowing node of ``capacity + 1``
        entries can produce fractions just below 0.35).
    """

    def __init__(
        self,
        dims: int,
        capacity: int = 32,
        page_store: PageStore | None = None,
        max_overlap: float = 0.2,
        min_fanout: float = 0.3,
        reinsert_fraction: float = 0.3,
    ) -> None:
        super().__init__(
            dims,
            capacity=capacity,
            page_store=page_store,
            reinsert_fraction=reinsert_fraction,
        )
        if not 0.0 <= max_overlap <= 1.0:
            raise ValueError("max_overlap must be in [0, 1]")
        if not 0.0 < min_fanout <= 0.5:
            raise ValueError("min_fanout must be in (0, 0.5]")
        self.max_overlap = max_overlap
        self.min_fanout = min_fanout
        #: extra page ids backing supernodes, keyed by the node's first page
        self._supernode_pages: dict[int, list[int]] = {}

    # -- split policy ----------------------------------------------------------

    def _split_policy(self, node: _RNode) -> Optional[_RNode]:
        left, right = self._rstar_split(node)
        if self._split_acceptable(node, left, right):
            return self._apply_split(node, left, right)
        self._grow_supernode(node)
        return None

    def _split_acceptable(self, node: _RNode, left: list, right: list) -> bool:
        if node.is_leaf:
            left_rect = Rect.union_of([e.rect for e in left])
            right_rect = Rect.union_of([e.rect for e in right])
        else:
            left_rect = Rect.union_of([c.rect for c in left])
            right_rect = Rect.union_of([c.rect for c in right])
        union = left_rect.union(right_rect)
        union_volume = union.volume()
        if union_volume <= 0.0:
            # Degenerate boxes: overlap fraction undefined; fall back to a
            # margin-based criterion (disjoint margins <=> no overlap).
            overlap_fraction = (
                1.0 if left_rect.intersects(right_rect) else 0.0
            )
        else:
            overlap_fraction = left_rect.overlap_volume(right_rect) / union_volume
        if overlap_fraction > self.max_overlap:
            return False
        total = len(left) + len(right)
        fanout = min(len(left), len(right)) / total
        return fanout >= self.min_fanout

    def _grow_supernode(self, node: _RNode) -> None:
        """Extend the node by one page worth of capacity."""
        extra = self.store.allocate()
        self._supernode_pages.setdefault(node.page_id, []).append(extra)
        node.capacity += self.capacity

    def supernode_page_count(self, node: _RNode) -> int:
        """Pages a node spans (1 for normal nodes)."""
        return 1 + len(self._supernode_pages.get(node.page_id, []))

    @property
    def supernode_count(self) -> int:
        """Number of supernodes currently in the tree."""
        return sum(
            1
            for n in self.nodes()
            if self._supernode_pages.get(n.page_id)
        )

    # -- page accounting ----------------------------------------------------------

    def _read_node(self, node: _RNode) -> None:
        """A supernode visit touches all of its pages."""
        self.store.read(node.page_id)
        for pid in self._supernode_pages.get(node.page_id, ()):
            self.store.read(pid)

    def intersecting(self, query: Rect) -> list:
        result = []
        stack: list[_RNode] = [self.root]
        while stack:
            node = stack.pop()
            self._read_node(node)
            if node.rect is None or not node.rect.intersects(query):
                continue
            if node.is_leaf:
                result.extend(
                    e
                    for e in node.entries  # type: ignore[attr-defined]
                    if e.rect.intersects(query)
                )
            else:
                stack.extend(
                    c
                    for c in node.children  # type: ignore[attr-defined]
                    if c.rect is not None and c.rect.intersects(query)
                )
        return result

    def knn(self, point, k: int):
        # Reuse the parent implementation but charge supernode pages: the
        # parent reads node.page_id itself, so charge only the extras here.
        import heapq
        import itertools

        import numpy as np

        point = np.asarray(point, dtype=np.float64)
        counter = itertools.count()
        heap: list[tuple[float, int, object, bool]] = [
            (0.0, next(counter), self.root, False)
        ]
        result = []
        while heap and len(result) < k:
            dist, _, obj, is_entry = heapq.heappop(heap)
            if is_entry:
                result.append((math.sqrt(dist), obj))
                continue
            node: _RNode = obj  # type: ignore[assignment]
            self._read_node(node)
            if node.is_leaf:
                for e in node.entries:  # type: ignore[attr-defined]
                    heapq.heappush(
                        heap, (e.rect.min_dist_sq(point), next(counter), e, True)
                    )
            else:
                for c in node.children:  # type: ignore[attr-defined]
                    if c.rect is not None:
                        heapq.heappush(
                            heap,
                            (c.rect.min_dist_sq(point), next(counter), c, False),
                        )
        return result
