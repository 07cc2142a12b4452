"""Gauss-tree nodes (Definition 4).

Two node kinds, both occupying one simulated disk page:

* :class:`LeafNode` stores between ``M`` and ``2 M`` probabilistic feature
  vectors (the root may hold fewer while the tree is small);
* :class:`InnerNode` stores between ``ceil(M/2)`` and ``M`` child entries,
  each a :class:`~repro.gausstree.bounds.ParameterRect` plus the child
  pointer and — for the sum approximation of Section 5.2 — the child's
  subtree cardinality.

Every leaf is **columnar**: its payload is a pair of ``(count, d)``
``mu``/``sigma`` stacks plus the key list, however the leaf was built —
bulk loading, repeated insertion, or decoding a page of any format — so
exact refinement (Lemma 1 over every stored pfv) and candidate selection
run as single numpy kernels over the whole page. The mutators (``add``,
``remove_at``, ``replace_entries``) swap in new arrays instead of writing
into the old ones, so decoded columns stay read-only views of page bytes.
The object API (``entries``, ``entry_at``) reads the rows: a row added
from a caller's :class:`~repro.core.pfv.PFV` hands that object back, a
decoded or bulk-loaded row builds a pfv on access.

Nodes of a disk-opened tree (:mod:`repro.gausstree.persist`) start out as
*stubs*: the page id, MBR and subtree cardinality are known (they live in
the parent's page), but the payload — a leaf's columns, an inner node's
child list — is materialized from page bytes only on first access through
a loader callback, which every payload accessor (``arrays``, ``entries``,
``children``, ...) triggers; in-memory trees simply never set a loader
and pay one ``None`` check.

Stubs are not read-only: on a writable disk-opened tree every mutator
(``add``, ``remove_at``, ``add_child``, ``remove_child``, the split-time
``replace_*``) goes through the same materializing properties, so a stub
transparently loads, mutates, and is then marked dirty by the tree's
write path (:meth:`repro.gausstree.tree.GaussTree._note_dirty`) for the
next WAL commit.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect

__all__ = ["Node", "LeafNode", "InnerNode"]

# The columns of a leaf that has never held a row.
_NO_ROWS = np.empty((0, 0))
_NO_ROWS.flags.writeable = False


class Node:
    """Common state of leaf and inner nodes."""

    __slots__ = ("rect", "parent", "page_id", "_loader")

    def __init__(self, page_id: int) -> None:
        self.rect: Optional[ParameterRect] = None
        self.parent: Optional["InnerNode"] = None
        self.page_id = page_id
        # Deferred materialization callback of a disk-backed stub; called
        # once with the node, then cleared. None for in-memory nodes.
        self._loader: Optional[Callable[["Node"], None]] = None

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of pfv stored in this subtree."""
        raise NotImplementedError

    @property
    def is_materialized(self) -> bool:
        """Whether the payload is in memory (stubs load on first access)."""
        return self._loader is None

    def _materialize(self) -> None:
        loader = self._loader
        if loader is not None:
            self._loader = None
            loader(self)

    def refresh_rect(self) -> None:
        """Recompute the tight MBR from the node's contents."""
        raise NotImplementedError


class LeafNode(Node):
    """A data page holding pfv as ``(count, d)`` mu/sigma columns + keys."""

    __slots__ = ("_mu", "_sigma", "_keys", "_objects", "_stub_count")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self._mu = _NO_ROWS
        self._sigma = _NO_ROWS
        self._keys: list = []
        # Per row: the caller's pfv the row was added from, handed back by
        # entry_at; None for decoded and bulk-loaded rows.
        self._objects: list[Optional[PFV]] = []
        self._stub_count = 0

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def count(self) -> int:
        if self._loader is not None:
            return self._stub_count  # known from the parent page
        return len(self._keys)

    @property
    def entries(self) -> list[PFV]:
        """The stored pfv as objects in row order (see :meth:`entry_at`);
        materializes a disk stub on first access."""
        if self._loader is not None:
            self._materialize()
        return [self.entry_at(i) for i in range(len(self._keys))]

    def entry_at(self, index: int) -> PFV:
        """One stored pfv by position: the object the row was added from,
        or — for a decoded or bulk-loaded row — a pfv built from the
        columns (the query kernels defer this to result assembly)."""
        if self._loader is not None:
            self._materialize()
        v = self._objects[index]
        if v is None:
            v = PFV(self._mu[index], self._sigma[index], self._keys[index])
        return v

    def keys(self) -> list:
        """The application keys in row order (the save path encodes
        straight from this and :meth:`arrays`)."""
        if self._loader is not None:
            self._materialize()
        return list(self._keys)

    def set_loader(
        self, loader: Callable[["LeafNode"], None], count: int
    ) -> None:
        """Turn this node into a stub: ``loader`` fills the columns later."""
        self._loader = loader  # type: ignore[assignment]
        self._stub_count = count

    def set_columns(
        self, mu: np.ndarray, sigma: np.ndarray, keys: list
    ) -> None:
        """Adopt ``(n, d)`` mu/sigma stacks plus the ``n`` application
        keys as the payload; recomputes the MBR from the columns.

        The arrays are kept as-is (read-only views of page bytes are
        fine) — callers must not mutate them afterwards.
        """
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if mu.ndim != 2 or mu.shape != sigma.shape:
            raise ValueError(
                f"columns must both be (n, d), got {mu.shape} and "
                f"{sigma.shape}"
            )
        if mu.shape[0] != len(keys):
            raise ValueError(
                f"{mu.shape[0]} rows but {len(keys)} keys"
            )
        self._adopt(mu, sigma, list(keys), [None] * len(keys))

    def replace_entries(self, entries: list[PFV]) -> None:
        """Swap in rows built from ``entries`` (used by splits and the
        interleaved-page loader); recomputes the MBR."""
        if entries:
            mu = np.vstack([v.mu for v in entries])
            sigma = np.vstack([v.sigma for v in entries])
        else:
            mu = sigma = _NO_ROWS
        self._adopt(mu, sigma, [v.key for v in entries], list(entries))

    def _adopt(
        self,
        mu: np.ndarray,
        sigma: np.ndarray,
        keys: list,
        objects: list[Optional[PFV]],
    ) -> None:
        self._loader = None
        self._mu = mu
        self._sigma = sigma
        self._keys = keys
        self._objects = objects
        self.refresh_rect()

    def add(self, v: PFV) -> None:
        """Append a pfv as a new row, growing the MBR in place."""
        mu, sigma = self.arrays()
        row_mu, row_sigma = v.mu[np.newaxis], v.sigma[np.newaxis]
        if self._keys:
            row_mu = np.concatenate((mu, row_mu))
            row_sigma = np.concatenate((sigma, row_sigma))
        self._mu, self._sigma = row_mu, row_sigma
        self._keys.append(v.key)
        self._objects.append(v)
        if self.rect is None:
            self.rect = ParameterRect.of_vector(v)
        else:
            self.rect.extend_vector(v)

    def remove_at(self, index: int) -> PFV:
        """Remove and return the entry at ``index``; tightens the MBR."""
        v = self.entry_at(index)
        self._mu = np.delete(self._mu, index, axis=0)
        self._sigma = np.delete(self._sigma, index, axis=0)
        del self._keys[index]
        del self._objects[index]
        self.refresh_rect()
        return v

    def refresh_rect(self) -> None:
        self.rect = (
            ParameterRect.of_arrays(self._mu, self._sigma)
            if self._keys
            else None
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(mu, sigma)`` columns, each ``(count, d)``, for
        vectorised refinement; materializes a disk stub on first access.
        Read-only by contract: mutators swap in new arrays."""
        if self._loader is not None:
            self._materialize()
        return self._mu, self._sigma

    def __iter__(self) -> Iterator[PFV]:
        return iter(self.entries)

    def __repr__(self) -> str:
        if self._loader is not None:
            return f"LeafNode(page={self.page_id}, stub, count={self._stub_count})"
        return f"LeafNode(page={self.page_id}, count={len(self._keys)})"


class InnerNode(Node):
    """A directory page holding child nodes with their parameter MBRs."""

    __slots__ = ("_children", "_count_cache", "_bounds_cache")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self._children: list[Node] = []
        self._count_cache: Optional[int] = None
        self._bounds_cache: Optional[tuple[np.ndarray, ...]] = None

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def children(self) -> list[Node]:
        """The child nodes; materializes a disk stub on first access."""
        if self._loader is not None:
            self._materialize()
        return self._children

    def set_loader(
        self, loader: Callable[["InnerNode"], None], count: int
    ) -> None:
        """Turn this node into a stub: ``loader`` fills the child list."""
        self._loader = loader  # type: ignore[assignment]
        self._count_cache = count

    @property
    def count(self) -> int:
        if self._count_cache is None:
            self._count_cache = sum(c.count for c in self.children)
        return self._count_cache

    def invalidate_count(self) -> None:
        """Drop the cached subtree cardinality (on any subtree mutation)."""
        node: Optional[InnerNode] = self
        while node is not None:
            node._count_cache = None
            node._bounds_cache = None
            node = node.parent

    def stacked_child_bounds(self) -> tuple[np.ndarray, ...]:
        """``(mu_lo, mu_hi, sigma_lo, sigma_hi)``, each ``(k, d)``, stacked
        over the children — lets queries bound all children in one numpy
        call. Cached until the next mutation below this node."""
        if self._bounds_cache is None:
            rects = [c.rect for c in self.children]
            self._bounds_cache = (
                np.vstack([r.mu_lo for r in rects]),
                np.vstack([r.mu_hi for r in rects]),
                np.vstack([r.sigma_lo for r in rects]),
                np.vstack([r.sigma_hi for r in rects]),
            )
        return self._bounds_cache

    def add_child(self, child: Node) -> None:
        if child.rect is None:
            raise ValueError("cannot attach a child without an MBR")
        self.children.append(child)
        child.parent = self
        if self.rect is None:
            self.rect = child.rect.copy()
        else:
            self.rect.extend_rect(child.rect)
        self.invalidate_count()

    def remove_child(self, child: Node) -> None:
        self.children.remove(child)
        child.parent = None
        self.refresh_rect()
        self.invalidate_count()

    def replace_children(self, children: list[Node]) -> None:
        """Swap in a new child list (used by splits); reparents and
        recomputes the MBR."""
        self._loader = None
        self._children = children
        for c in children:
            c.parent = self
        self.refresh_rect()
        self.invalidate_count()

    def refresh_rect(self) -> None:
        rects = [c.rect for c in self.children if c.rect is not None]
        self.rect = ParameterRect.of_rects(rects) if rects else None

    def __iter__(self) -> Iterator[Node]:
        return iter(self.children)

    def __repr__(self) -> str:
        if self._loader is not None:
            return f"InnerNode(page={self.page_id}, stub, count={self._count_cache})"
        return f"InnerNode(page={self.page_id}, children={len(self._children)})"
