"""The Gauss-tree (Section 5): structure, insertion, split, deletion.

A balanced R-tree-family index over the *parameter space* of the stored
Gaussians. Definition 4 fixes the structure for a degree ``M``:

* leaves hold between ``M`` and ``2 M`` pfv (the root may hold fewer);
* inner nodes hold between ``ceil(M/2)`` and ``M`` children
  (the root at least 2 once it is an inner node);
* all leaves are on the same level.

Insertion follows Section 5.3's path-selection rules verbatim:

1. if the new pfv fits into exactly one child MBR, follow it;
2. if it fits into none, follow the child needing the least volume
   enlargement (margin as tie-breaker for degenerate boxes);
3. if it fits into several, follow *all* fitting paths and use the leaf
   where it fits exactly, or failing that the reachable leaf with the
   least enlargement.

Overflowing nodes are split by the hull-integral-minimising median split of
:mod:`repro.gausstree.split`. Deletion (not described in the paper, added
for library completeness) uses the classic R-tree condense: underfull nodes
are dissolved and their entries reinserted.

Query processing lives in :mod:`repro.gausstree.mliq`,
:mod:`repro.gausstree.tiq` and :mod:`repro.gausstree.batch` as functions
of the tree; callers reach them through the engine
(``repro.engine.session_for(tree).execute(MLIQ(q, k))``). What those
read beside the nodes is the tree's :class:`LeafDirectory`: every leaf's
rows, rectangle and pages under one leaf order, built on first use and
dropped by every change.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.joint import PreparedColumns, SigmaRule
from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect
from repro.gausstree.integral import log_split_quality
from repro.gausstree.node import InnerNode, LeafNode, Node
from repro.gausstree.split import split_children, split_entries
from repro.storage.layout import PageLayout
from repro.storage.pagestore import PageStore

__all__ = ["GaussTree", "LeafDirectory"]


class LeafDirectory:
    """Every leaf of a tree that holds rows, with its rows, rectangle and
    pages under one index: leaf ``i`` of ``leaves``.

    The leaves come in :meth:`GaussTree.nodes` pre-order (a node, then
    its children's subtrees, last child first); ``spans`` maps each leaf
    parent's page id to its children's ``(start, stop)``. ``counts``
    holds each leaf's rows, ``log_counts`` their logs and ``starts``
    each leaf's first row. Built on first use: ``columns``, every row in
    the Lemma-1 kernel's layout under the tree's sigma rule; ``bounds``,
    the rectangles as ``(mu_lo, mu_hi, sigma_lo, sigma_hi)``, each
    ``(leaves, d)``, which a k-MLIQ's census bounds; ``page_ids``, every
    node page in pre-order, the order a swept query reads them, and
    ``subtrees``, each node's page id mapped to its subtree's ``(start,
    stop)`` there.
    """

    def __init__(self, tree: "GaussTree") -> None:
        self._nodes = list(tree.nodes())
        self._dims = tree.dims
        self._rule = tree.sigma_rule
        # All leaves sit on one level, so a leaf parent's children are
        # all leaves, and they follow it in pre-order.
        self._parents: list[InnerNode] = [
            node
            for node in self._nodes
            if not node.is_leaf and node.children[0].is_leaf  # type: ignore[attr-defined]
        ]
        self.leaves: list[LeafNode] = []
        self.spans: dict[int, tuple[int, int]] = {}
        for parent in self._parents:
            start = len(self.leaves)
            self.leaves.extend(reversed(parent.children))  # type: ignore[arg-type]
            self.spans[parent.page_id] = (start, len(self.leaves))
        if not self._parents and tree.root.count:
            self.leaves.append(tree.root)  # type: ignore[arg-type]
        counts = [leaf.count for leaf in self.leaves]
        self.rows = sum(counts)
        self.counts = np.array(counts, dtype=np.intp)
        self.log_counts = np.log(self.counts)
        self.starts = np.cumsum(self.counts) - self.counts

    @cached_property
    def columns(self) -> PreparedColumns:
        """On a disk-opened tree the build reads the pages of leaves no
        query has materialized, outside the counted access path, and
        leaves them stubs (:meth:`~repro.gausstree.node.LeafNode.peek_arrays`),
        so the columns cost their own ``2 * n * d`` floats and no more."""
        return PreparedColumns.stack(
            (leaf.peek_arrays() for leaf in self.leaves),
            self.rows,
            self._dims,
            self._rule,
        )

    @cached_property
    def bounds(self) -> tuple[np.ndarray, ...]:
        """From the leaf parents' ``stacked_child_bounds()``, each
        reversed: a leaf's rectangle lives in its parent's page, so no
        leaf page is decoded. A root leaf has no parent and gives its
        own."""
        if not self._parents:
            return tuple(
                np.array(
                    [getattr(leaf.rect, name) for leaf in self.leaves]
                ).reshape(-1, self._dims)
                for name in ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi")
            )
        # The parents' stacks last first, concatenated and reversed, are
        # each parent's stack reversed in parent order.
        stacks = [
            parent.stacked_child_bounds() for parent in reversed(self._parents)
        ]
        return tuple(
            np.concatenate(column)[::-1].copy() for column in zip(*stacks)
        )

    @cached_property
    def page_ids(self) -> list[int]:
        return [node.page_id for node in self._nodes]

    @cached_property
    def subtrees(self) -> dict[int, tuple[int, int]]:
        # Children follow their parent last first, so a subtree ends
        # where its first child's does.
        nodes = self._nodes
        subtrees: dict[int, tuple[int, int]] = {}
        for start in range(len(nodes) - 1, -1, -1):
            node = nodes[start]
            stop = (
                start + 1
                if node.is_leaf
                else subtrees[node.children[0].page_id][1]  # type: ignore[attr-defined]
            )
            subtrees[node.page_id] = (start, stop)
        return subtrees

    def locate(self, rows: np.ndarray) -> list[tuple[LeafNode, int]]:
        """The ``(leaf, row)`` each given row of ``columns`` is stored at."""
        owners = np.searchsorted(self.starts, rows, side="right") - 1
        offsets = (rows - self.starts[owners]).tolist()
        leaves = self.leaves
        return [(leaves[j], i) for j, i in zip(owners.tolist(), offsets)]


class GaussTree:
    """A Gauss-tree of degree ``M`` over ``d``-dimensional pfv.

    Parameters
    ----------
    dims:
        Dimensionality ``d`` of the stored pfv.
    degree:
        The degree ``M`` of Definition 4. If omitted it is derived from
        ``layout`` (or a default 8 KiB page layout).
    layout:
        Page layout that ties capacities to a simulated page size.
    page_store:
        Storage accounting backend; a private one is created if omitted.
    sigma_rule:
        How query and object uncertainties combine (see
        :class:`~repro.core.joint.SigmaRule`); must match the rule used by
        any sequential scan the results are compared against.
    split_quality:
        Log access-probability score minimised by splits; the default is
        the paper's hull integral, the ablation benchmark passes the naive
        volume score instead.
    """

    def __init__(
        self,
        dims: int,
        degree: int | None = None,
        layout: PageLayout | None = None,
        page_store: PageStore | None = None,
        sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
        split_quality: Callable[[ParameterRect], float] = log_split_quality,
    ) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if layout is None:
            layout = PageLayout(dims=dims)
        elif layout.dims != dims:
            raise ValueError(
                f"layout is for d={layout.dims}, tree is d={dims}"
            )
        if degree is None:
            degree = min(layout.leaf_capacity // 2, layout.inner_capacity)
        if degree < 2:
            raise ValueError(f"degree M must be >= 2, got {degree}")
        self.dims = dims
        self.degree = degree
        self.layout = layout
        self.store = page_store if page_store is not None else PageStore()
        self.sigma_rule = sigma_rule
        self.split_quality = split_quality
        self.root: Node = LeafNode(self.store.allocate())
        #: Set by :meth:`open` for format-v1 files, which have no free
        #: list and therefore no write path.
        self.read_only = False
        #: Attached by :meth:`open` with ``writable=True``: commits every
        #: mutation through the write-ahead log (see
        #: :class:`~repro.gausstree.persist.TreeWriter`).
        self._writer = None
        # Nodes whose pages the current mutation dirtied, each with its
        # row-edit journal: the rows a leaf appended (their pfv) and
        # removed (their positions) since its last committed image, in
        # order, or None where the commit must log the full page (an
        # inner node, a new or split leaf). None when no
        # writer is attached (in-memory trees pay one `is None` check).
        self._dirty_nodes: dict[Node, list | None] | None = None
        # Reader-presence mark held by read-only opens so
        # `repro reshard-gc` can see live readers; set by open_tree,
        # released in close().
        self._reader_lock = None
        # Built by leaf_directory() on first use; every mutation, an
        # in-place save and close() drop it.
        self._leaf_directory: LeafDirectory | None = None
        # The height a read-only disk tree's header records (set by
        # open_tree); a writable tree's writer keeps its own current.
        self._header_height: int | None = None

    # -- capacities (Definition 4) ------------------------------------------

    @property
    def leaf_min(self) -> int:
        return self.degree

    @property
    def leaf_max(self) -> int:
        return 2 * self.degree

    @property
    def inner_min(self) -> int:
        # Definition 4: inner nodes hold between M/2 and M children (for
        # M=2 that legitimately allows single-child inner nodes).
        return max(1, math.ceil(self.degree / 2))

    @property
    def inner_max(self) -> int:
        return self.degree

    # -- bookkeeping ----------------------------------------------------------

    def __len__(self) -> int:
        return self.root.count

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone root leaf).

        A disk-opened tree answers from its header's height, which the
        writer of a writable tree keeps current at every commit, so no
        stub page is decoded; an in-memory tree walks its left spine.
        """
        if self._writer is not None:
            return self._writer.height
        if self._header_height is not None:
            return self._header_height
        return self._spine_height()

    def _spine_height(self) -> int:
        """Levels down the first children from the root to a leaf; on a
        disk-opened tree this decodes every inner stub on the way."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            h += 1
        return h

    def nodes(self) -> Iterator[Node]:
        """All nodes, pre-order."""
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[attr-defined]

    def leaves(self) -> Iterator[LeafNode]:
        for node in self.nodes():
            if node.is_leaf:
                yield node  # type: ignore[misc]

    def __iter__(self) -> Iterator[PFV]:
        """All stored pfv (no particular order)."""
        for leaf in self.leaves():
            yield from leaf.entries

    def leaf_directory(self) -> LeafDirectory:
        """The tree's :class:`LeafDirectory`, built on first use and kept
        until :meth:`insert_many` or :meth:`delete` changes the rows, an
        in-place :meth:`save` renumbers the pages, or :meth:`close`. On
        a disk-opened tree the build decodes every inner page outside
        the counted access path, like any offline walk."""
        directory = self._leaf_directory
        if directory is None:
            directory = self._leaf_directory = LeafDirectory(self)
        return directory

    # -- write-path bookkeeping ----------------------------------------------

    def attach_writer(self, writer) -> None:
        """Wire a :class:`~repro.gausstree.persist.TreeWriter` in: every
        mutation marks the nodes whose pages it touched and commits them
        as one WAL transaction when the operation completes."""
        self._writer = writer
        self._dirty_nodes = {}
        self.read_only = False

    def _note_dirty(self, *nodes: Node) -> None:
        """Mark pages the commit logs as full images."""
        if self._dirty_nodes is not None:
            for node in nodes:
                self._dirty_nodes[node] = None

    def _note_row_edit(self, leaf: LeafNode, edit: PFV | int) -> None:
        """Journal one row appended to (its pfv) or removed from (its
        position) an existing leaf; a leaf already due a full image
        stays so."""
        if self._dirty_nodes is not None:
            edits = self._dirty_nodes.setdefault(leaf, [])
            if edits is not None:
                edits.append(edit)

    def _commit_mutation(self) -> None:
        if self._writer is not None:
            # Cleared only after the commit lands: if it raises (ENOSPC,
            # injected crash) the marks and the row edits survive, so a
            # caller that keeps the tree re-logs these pages with its
            # next operation instead of silently never persisting them.
            self._writer.commit(self._dirty_nodes)
            self._dirty_nodes = {}
            # After the marks are cleared, so a WAL-size-triggered
            # checkpoint never re-commits the operation it just sealed.
            self._writer.maybe_auto_checkpoint()

    # -- insertion -------------------------------------------------------------

    def insert(self, v: PFV) -> None:
        """Insert one pfv (Section 5.3 path selection + median split).

        This is ``insert_many([v])``: on a writable disk-opened tree the
        operation is one write-ahead-log commit before returning
        (durable once ``insert`` returns, under the tree's fsync
        setting)."""
        self.insert_many([v])

    def _insert_impl(self, v: PFV) -> None:
        if v.dims != self.dims:
            raise ValueError(f"vector is {v.dims}-d, tree is {self.dims}-d")
        leaf = self._choose_leaf(v)
        leaf.add(v)
        self._note_row_edit(leaf, v)
        node: Optional[InnerNode] = leaf.parent
        while node is not None:
            assert node.rect is not None
            node.rect.extend_vector(v)
            node.invalidate_count()
            self._note_dirty(node)
            node = node.parent
        if leaf.count > self.leaf_max:
            self._handle_overflow(leaf)

    def extend(self, vectors: Iterable[PFV]) -> None:
        """Insert vectors one by one (each durable per operation on a
        writable disk tree; use :meth:`insert_many` for group commit)."""
        for v in vectors:
            self.insert(v)

    def insert_many(self, vectors: Iterable[PFV]) -> int:
        """Insert a batch of pfv as **one group-commit transaction**.

        On a writable disk-opened tree the whole batch is sealed by a
        single WAL ``COMMIT`` and a single fsync: each leaf that only
        gained rows logs them in one ``ROWS`` record, and every other
        page the batch dirtied is logged once (latest image) instead of
        once per insert — amortising the per-commit header and the 8 KiB
        images of the inner pages on the insert path, which make a
        per-op :meth:`insert` below a root leaf about 8 KiB of WAL per
        tree level above the leaves. Durability is
        all-or-nothing: after a crash either every insert of the batch
        is recovered or none is (never a partial batch), which the
        crash-injection harness asserts. On an in-memory tree this is
        simply a loop. Returns the number of vectors inserted.
        """
        self._check_writable()
        batch = list(vectors)
        for v in batch:  # fail fast *before* mutating anything
            if v.dims != self.dims:
                raise ValueError(
                    f"vector is {v.dims}-d, tree is {self.dims}-d"
                )
        if self._writer is not None:
            # Fail unsupported key types *before* mutating anything, so
            # a bad key cannot wedge every later commit; the commit
            # reuses these encodings.
            self._writer.key_table.check(v.key for v in batch)
        self._leaf_directory = None
        for v in batch:
            self._insert_impl(v)
        # One commit for the whole batch: the dirty-node union reaches
        # the WAL as a single transaction (see TreeWriter.commit).
        self._commit_mutation()
        return len(batch)

    def _choose_leaf(self, v: PFV) -> LeafNode:
        leaf, _fits, _cost = self._descend(self.root, v)
        return leaf

    def _descend(
        self, node: Node, v: PFV
    ) -> tuple[LeafNode, bool, tuple[float, float]]:
        """Return ``(leaf, fits_exactly, enlargement_cost)`` below ``node``."""
        if node.is_leaf:
            leaf: LeafNode = node  # type: ignore[assignment]
            if leaf.rect is None:
                return leaf, True, (-math.inf, 0.0)
            if leaf.rect.contains_vector(v):
                return leaf, True, (-math.inf, 0.0)
            return leaf, False, leaf.rect.enlargement_for_vector(v)
        inner: InnerNode = node  # type: ignore[assignment]
        containing = [
            c
            for c in inner.children
            if c.rect is not None and c.rect.contains_vector(v)
        ]
        if containing:
            # Rule 3: follow all fitting paths, prefer an exactly fitting
            # leaf; among equals, the leaf with the fewest entries.
            best_key: tuple | None = None
            best: tuple[LeafNode, bool, tuple[float, float]] | None = None
            for child in containing:
                leaf, fits, cost = self._descend(child, v)
                key = (not fits, cost, leaf.count)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (leaf, fits, cost)
            assert best is not None
            return best
        # Rule 2: no child fits — greedy least enlargement (log-space
        # volume, then margin for degenerate boxes, then the smaller box).
        def child_cost(c: Node) -> tuple[float, float, float]:
            assert c.rect is not None
            d_log_vol, d_margin = c.rect.enlargement_for_vector(v)
            return (d_log_vol, d_margin, c.rect.log_volume())

        best_child = min(inner.children, key=child_cost)
        return self._descend(best_child, v)

    # -- overflow / split --------------------------------------------------------

    def _handle_overflow(self, node: Node) -> None:
        while True:
            if node.is_leaf:
                if node.count <= self.leaf_max:
                    return
                new_node: Node = self._split_leaf(node)  # type: ignore[arg-type]
            else:
                if len(node.children) <= self.inner_max:  # type: ignore[attr-defined]
                    return
                new_node = self._split_inner(node)  # type: ignore[arg-type]
            self._note_dirty(node, new_node)
            parent = node.parent
            if parent is None:
                new_root = InnerNode(self.store.allocate())
                new_root.add_child(node)
                new_root.add_child(new_node)
                self.root = new_root
                self._note_dirty(new_root)
                return
            parent.refresh_rect()
            parent.add_child(new_node)
            self._note_dirty(parent)
            node = parent

    def _split_leaf(self, leaf: LeafNode) -> LeafNode:
        left, right, _score = split_entries(
            leaf.entries, self.leaf_min, self.split_quality
        )
        leaf.replace_entries(left)
        sibling = LeafNode(self.store.allocate())
        sibling.replace_entries(right)
        self.store.buffer.invalidate(leaf.page_id)
        return sibling

    def _split_inner(self, inner: InnerNode) -> InnerNode:
        left, right, _score = split_children(
            inner.children, self.inner_min, self.split_quality
        )
        inner.replace_children(left)
        sibling = InnerNode(self.store.allocate())
        sibling.replace_children(right)
        self.store.buffer.invalidate(inner.page_id)
        return sibling

    # -- deletion ---------------------------------------------------------------

    def delete(self, v: PFV) -> bool:
        """Remove one pfv equal to ``v``; returns whether it was found.

        Not part of the paper; uses R-tree condense semantics (underfull
        nodes dissolve, entries reinsert) so all Definition-4 invariants
        keep holding — the property tests insert and delete randomly and
        re-validate.
        """
        self._check_writable()
        found = self._find_entry(self.root, v)
        if found is None:
            return False
        self._leaf_directory = None
        leaf, index = found
        leaf.remove_at(index)
        self._note_row_edit(leaf, index)
        if leaf.parent is not None:
            leaf.parent.invalidate_count()
        self._condense(leaf)
        self._commit_mutation()
        return True

    def _find_entry(
        self, node: Node, v: PFV
    ) -> tuple[LeafNode, int] | None:
        if node.is_leaf:
            # One vectorized parameter comparison over the page's rows,
            # then the key: the pfv equality of ``PFV.__eq__``.
            leaf: LeafNode = node  # type: ignore[assignment]
            mu, sigma = leaf.arrays()
            if mu.shape[1:] != v.mu.shape:
                return None  # no row of v's width (an empty root leaf)
            same = np.flatnonzero(
                (mu == v.mu).all(axis=1) & (sigma == v.sigma).all(axis=1)
            )
            keys = leaf.keys()
            for i in same.tolist():
                if keys[i] == v.key:
                    return leaf, i
            return None
        inner: InnerNode = node  # type: ignore[assignment]
        for child in inner.children:
            if child.rect is not None and child.rect.contains_vector(v):
                hit = self._find_entry(child, v)
                if hit is not None:
                    return hit
        return None

    def _collect_entries(self, node: Node, out: list[PFV]) -> None:
        if node.is_leaf:
            out.extend(node.entries)  # type: ignore[attr-defined]
            self.store.free(node.page_id)
            return
        for child in node.children:  # type: ignore[attr-defined]
            self._collect_entries(child, out)
        self.store.free(node.page_id)

    def _condense(self, leaf: LeafNode) -> None:
        orphans: list[PFV] = []
        node: Node = leaf
        while node.parent is not None:
            parent = node.parent
            if node.is_leaf:
                underfull = node.count < self.leaf_min
            else:
                underfull = len(node.children) < self.inner_min  # type: ignore[attr-defined]
            if underfull:
                parent.remove_child(node)
                self._collect_entries(node, orphans)
            else:
                node.refresh_rect()
                parent.invalidate_count()  # child rect tightened: stale caches
            # Either way the parent's page changed: a child entry left,
            # or the child's stored MBR/cardinality moved.
            self._note_dirty(parent)
            node = parent
        node.refresh_rect()  # tighten the root
        # Collapse a degenerate inner root.
        while (
            not self.root.is_leaf
            and len(self.root.children) == 1  # type: ignore[attr-defined]
        ):
            child = self.root.children[0]  # type: ignore[attr-defined]
            child.parent = None
            self.store.free(self.root.page_id)
            self.root = child
        if not self.root.is_leaf and not self.root.children:  # type: ignore[attr-defined]
            self.store.free(self.root.page_id)
            self.root = LeafNode(self.store.allocate())
            self._note_dirty(self.root)
        # Reinserts ride inside the same logical operation (and the same
        # WAL transaction): _insert_impl, not insert.
        for orphan in orphans:
            self._insert_impl(orphan)

    def _check_writable(self) -> None:
        if self.read_only:
            raise RuntimeError(
                "this Gauss-tree was opened from disk and is read-only; "
                "open it with writable=True (formats v2/v3) to change "
                "its contents"
            )

    # -- persistence ---------------------------------------------------------------

    def save(self, path, *, version: int | None = None) -> None:
        """Write the tree to ``path`` as a self-describing index file.

        The file holds the same byte-faithful pages the simulated
        accounting assumes (see :mod:`repro.storage.serializer`) plus a
        header and a key table; :meth:`open` maps it back. Page ids are
        re-assigned densely on save, so a save/open round trip is also a
        compaction.

        ``version`` picks the disk format: 3 writes columnar leaf pages,
        2 the interleaved v2 encoding for older readers; both give
        identical query answers and page accounting. The default
        (``None``) writes the current format — except for a writable
        disk-opened tree, which keeps its own file's format (pass
        ``version=3`` explicitly to upgrade a v2 file).

        A tree with an attached writable store flushes its write-ahead
        log first: committed-but-unbuffered state must reach the main
        file and the WAL must empty *before* the target is replaced,
        otherwise reopening would replay stale page images over the
        freshly saved file. Saving a writable tree over its own file
        additionally rebinds the in-memory nodes to the compacted page
        ids, so the tree stays writable afterwards.
        """
        import os as _os

        from repro.gausstree.persist import FORMAT_VERSION, save_tree

        if self._writer is not None:
            self.flush()
        if version is None:
            version = (
                self._writer.format_version
                if self._writer is not None
                else FORMAT_VERSION
            )
        saved = save_tree(
            self,
            path,
            version=version,
            _writer_lock=(
                self._writer._lock if self._writer is not None else None
            ),
        )
        # realpath, not abspath: saving through a symlink to the backing
        # file still replaces the inode under the store and must rebind.
        if self._writer is not None and _os.path.realpath(
            _os.fspath(path)
        ) == _os.path.realpath(self.store.path):
            self._writer.rebind_after_save(saved)
            # The directory names nodes by their old page ids.
            self._leaf_directory = None

    @classmethod
    def open(
        cls,
        path,
        buffer=None,
        *,
        writable: bool = False,
        fsync: bool = True,
        auto_checkpoint_bytes: int | None = None,
        file_factory=open,
    ) -> "GaussTree":
        """Open an index file saved by :meth:`save`.

        Nodes materialize lazily from page bytes through a
        :class:`~repro.storage.filestore.FilePageStore`; queries on the
        opened tree read real pages through the buffer while reporting
        the same logical page-access counts as the in-memory tree.

        By default the returned tree is read-only. With
        ``writable=True`` (format v2/v3 files) ``insert``/``delete`` work
        and are durable per operation through the write-ahead log; call
        :meth:`flush` or :meth:`close` to checkpoint into the main file.
        A WAL left behind by a crashed writer is replayed on open.

        ``auto_checkpoint_bytes`` (writable only) bounds the sidecar
        WAL: whenever a committed operation leaves the WAL at or above
        this many bytes, the tree checkpoints immediately — so crash
        recovery never replays more than roughly this much log. Default
        ``None`` keeps the explicit flush()/close() discipline.
        """
        from repro.gausstree.persist import open_tree

        return open_tree(
            path,
            buffer=buffer,
            writable=writable,
            fsync=fsync,
            auto_checkpoint_bytes=auto_checkpoint_bytes,
            file_factory=file_factory,
        )

    def flush(self) -> None:
        """Checkpoint a writable disk-opened tree (no-op otherwise).

        Publishes every committed page image, the key table and the
        header as a new main-file generation (atomic rename — readers
        already open keep their pre-checkpoint snapshot), then empties
        the WAL.
        """
        if self._writer is not None:
            self._writer.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Release the backing file of a disk-opened tree (no-op otherwise).

        A writable tree checkpoints first unless ``checkpoint=False``
        (the committed state is still safe in the WAL and will be
        replayed on the next open — the crash-recovery path, which the
        recovery benchmark and tests exercise deliberately).
        """
        self._leaf_directory = None
        try:
            if self._writer is not None:
                self._writer.close(checkpoint=checkpoint)
        finally:
            try:
                close = getattr(self.store, "close", None)
                if close is not None:
                    close()
            finally:
                if self._reader_lock is not None:
                    self._reader_lock.release()
                    self._reader_lock = None

    # -- validation ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every Definition-4 invariant; raises AssertionError.

        Checked: uniform leaf depth, fill bounds (root exempt), tight and
        containing MBRs, parent pointers, cached subtree counts.
        """
        leaf_depths: set[int] = set()
        self._check_node(self.root, depth=0, leaf_depths=leaf_depths)
        assert len(leaf_depths) <= 1, f"leaves at depths {sorted(leaf_depths)}"

    def _check_node(self, node: Node, depth: int, leaf_depths: set[int]) -> None:
        is_root = node is self.root
        if node.is_leaf:
            leaf: LeafNode = node  # type: ignore[assignment]
            leaf_depths.add(depth)
            if not is_root:
                assert leaf.count >= self.leaf_min, (
                    f"leaf underfull: {leaf.count} < {self.leaf_min}"
                )
            assert leaf.count <= self.leaf_max, (
                f"leaf overfull: {leaf.count} > {self.leaf_max}"
            )
            if leaf.count:
                tight = ParameterRect.of_vectors(leaf.entries)
                assert leaf.rect == tight, "leaf MBR is not tight"
            else:
                assert leaf.rect is None and is_root, "empty non-root leaf"
            return
        inner: InnerNode = node  # type: ignore[assignment]
        k = len(inner.children)
        if is_root:
            assert k >= 2, f"inner root with {k} children"
        else:
            assert k >= self.inner_min, f"inner underfull: {k} < {self.inner_min}"
        assert k <= self.inner_max, f"inner overfull: {k} > {self.inner_max}"
        tight = ParameterRect.of_rects(
            [c.rect for c in inner.children if c.rect is not None]
        )
        assert inner.rect == tight, "inner MBR is not tight"
        assert inner.count == sum(c.count for c in inner.children), (
            "cached subtree count is stale"
        )
        for child in inner.children:
            assert child.parent is inner, "broken parent pointer"
            assert child.rect is not None and inner.rect.contains_rect(child.rect)
            self._check_node(child, depth + 1, leaf_depths)

    def __repr__(self) -> str:
        return (
            f"GaussTree(d={self.dims}, M={self.degree}, n={len(self)}, "
            f"height={self.height})"
        )
