"""Bulk loading for the Gauss-tree (extension; not part of the paper).

The paper builds its trees by repeated insertion with the hull-integral
split of Section 5.3. Repeated insertion is faithful but needlessly slow in
pure Python for the 100,000-object data set 2, so this module adds a
top-down packing loader that applies the *same optimisation criterion* as
the paper's splits:

1. recursively median-split the collection along the parameter axis
   (any ``mu_i`` or ``sigma_i``) that minimises the sum of the two halves'
   hull integrals — the access-probability score of Section 5.3 — until
   groups fit a leaf. Halving an overflowing group automatically lands
   every leaf inside Definition 4's ``[M, 2M]`` (~75% fill on average,
   about what repeated insertion converges to, keeping page-access
   comparisons fair). Axis selection subsamples large groups, so the whole
   build is a few numpy calls per recursion node;
2. build the inner levels by chunking the (recursion-ordered, hence
   parameter-space-coherent) leaf list with the ``[ceil(M/2), M]`` bounds
   until a single root remains.

A generic spread-based ordering (:func:`spatial_order`) is kept as the
baseline for the bulk-loading ablation benchmark — the quality-driven
build produces markedly tighter query bounds on heteroscedastic data —
and :func:`str_groups` adds the classic Sort-Tile-Recursive packer as a
second, cheaper baseline (sort by one parameter axis, slice into slabs,
recurse on the next axis).

Bulk-loaded leaves adopt their columns directly
(:meth:`LeafNode.set_columns`): the packer already holds the ``(n, d)``
mu/sigma stacks, so each leaf takes its row slice without ever
materializing per-entry objects.

The resulting tree satisfies every invariant of
:meth:`repro.gausstree.tree.GaussTree.check_invariants`, which the test
suite asserts, and answers queries identically to an insertion-built tree
(both are exact); only page-access counts differ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.gaussian import SQRT_TWO_PI, SQRT_TWO_PI_E
from repro.core.joint import SigmaRule
from repro.core.pfv import PFV
from repro.gausstree.node import InnerNode, LeafNode, Node
from repro.gausstree.tree import GaussTree

__all__ = [
    "bulk_load",
    "spatial_order",
    "quality_groups",
    "str_groups",
    "chunk_sizes",
]

#: Axis-choice evaluation subsamples groups larger than this.
_SAMPLE_CAP = 256


def spatial_order(coords: np.ndarray) -> np.ndarray:
    """Recursive binary tiling order of row vectors (baseline ordering).

    ``coords`` has shape ``(n, k)``; returns a permutation of ``0..n-1``.
    At each recursion level the axis with the largest *normalised* spread
    (local span over global span, so mu and sigma axes compete fairly) is
    split at its median. Used by the bulk-load ablation; the default
    loader uses :func:`quality_groups` instead.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"coords must be (n, k), got shape {coords.shape}")
    n = coords.shape[0]
    global_span = coords.max(axis=0) - coords.min(axis=0) if n else None
    result = np.empty(n, dtype=np.intp)
    cursor = 0
    stack: list[np.ndarray] = [np.arange(n, dtype=np.intp)]
    while stack:
        idx = stack.pop()
        if idx.size <= 1:
            if idx.size == 1:
                result[cursor] = idx[0]
                cursor += 1
            continue
        local = coords[idx]
        span = local.max(axis=0) - local.min(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            norm = np.where(global_span > 0, span / global_span, 0.0)
        axis = int(np.argmax(norm))
        if norm[axis] == 0.0:
            result[cursor : cursor + idx.size] = idx
            cursor += idx.size
            continue
        order = idx[np.argsort(local[:, axis], kind="stable")]
        mid = order.size // 2
        stack.append(order[mid:])
        stack.append(order[:mid])
    assert cursor == n
    return result


def _log_group_quality(parts: np.ndarray, d: int) -> np.ndarray:
    """Log hull integrals of ``(a, h, 2d)`` stacked candidate groups.

    ``parts[j]`` holds the ``h`` member coordinate rows of candidate group
    ``j`` (mu columns first, sigma columns after); returns the ``(a,)``
    log multivariate hull integrals (Section 5.3's access-probability
    score, cf. :func:`repro.gausstree.integral.log_split_quality`).
    """
    lo = parts.min(axis=1)
    hi = parts.max(axis=1)
    mu_lo, mu_hi = lo[:, :d], hi[:, :d]
    sg_lo, sg_hi = lo[:, d:], hi[:, d:]
    per_dim = (
        1.0
        + (mu_hi - mu_lo) / (SQRT_TWO_PI * sg_lo)
        + 2.0 * (np.log(sg_hi) - np.log(sg_lo)) / SQRT_TWO_PI_E
    )
    return np.sum(np.log(per_dim), axis=1)


def _best_split_axis(
    coords: np.ndarray, idx: np.ndarray, d: int, rng: np.random.Generator
) -> int:
    """Axis whose median split minimises the summed hull integrals.

    Evaluates every mu and sigma axis at once on (a subsample of) the
    group: one fancy-index gather arranges the sample sorted by each axis,
    then the two half-group MBRs and their quality scores are reduced in
    bulk.
    """
    if idx.size > _SAMPLE_CAP:
        sub = rng.choice(idx, _SAMPLE_CAP, replace=False)
    else:
        sub = idx
    c = coords[sub]  # (m, 2d)
    order = np.argsort(c, axis=0)  # column j sorts the sample by axis j
    arranged = c[order.T]  # (2d, m, 2d): rows sorted per candidate axis
    mid = c.shape[0] // 2
    score = np.logaddexp(
        _log_group_quality(arranged[:, :mid, :], d),
        _log_group_quality(arranged[:, mid:, :], d),
    )
    return int(np.argmin(score))


def quality_groups(
    mu: np.ndarray,
    sigma: np.ndarray,
    max_group: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Partition pfv rows into leaf groups by the Section-5.3 criterion.

    Returns index arrays in recursion (parameter-space) order; every group
    has between ``ceil(max_group/2)`` and ``max_group`` members unless the
    whole input fits one group.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape or mu.ndim != 2:
        raise ValueError("mu and sigma must both be (n, d)")
    if max_group < 2:
        raise ValueError(f"max_group must be >= 2, got {max_group}")
    d = mu.shape[1]
    coords = np.hstack([mu, sigma])
    rng = np.random.default_rng(seed)
    groups: list[np.ndarray] = []
    stack: list[np.ndarray] = [np.arange(mu.shape[0], dtype=np.intp)]
    while stack:
        idx = stack.pop()
        if idx.size <= max_group:
            groups.append(idx)
            continue
        axis = _best_split_axis(coords, idx, d, rng)
        order = idx[np.argsort(coords[idx, axis], kind="stable")]
        mid = order.size // 2
        stack.append(order[mid:])
        stack.append(order[:mid])
    # The DFS pushes the right half last-but-one, so reversing on pop keeps
    # left-to-right order: stack.pop() returns the left half first.
    return groups


def str_groups(
    mu: np.ndarray, sigma: np.ndarray, max_group: int
) -> list[np.ndarray]:
    """Sort-Tile-Recursive leaf grouping over the ``2 d`` parameter axes.

    The classic R-tree packer adapted to parameter space: sort by the
    first axis, slice into roughly ``P**(1/k)`` slabs (``P`` the number
    of leaves still to produce, ``k`` the remaining axes), recurse per
    slab on the next axis, and chunk the final axis into full groups.
    Same contract as :func:`quality_groups`: index arrays in tiling
    order, every group within ``[ceil(max_group/2), max_group]`` unless
    the whole input fits one group.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape or mu.ndim != 2:
        raise ValueError("mu and sigma must both be (n, d)")
    if max_group < 2:
        raise ValueError(f"max_group must be >= 2, got {max_group}")
    coords = np.hstack([mu, sigma])
    k = coords.shape[1]
    lo = -(-max_group // 2)
    groups: list[np.ndarray] = []

    def tile(idx: np.ndarray, axis: int) -> None:
        if idx.size <= max_group:
            groups.append(idx)
            return
        order = idx[np.argsort(coords[idx, axis], kind="stable")]
        leaves = -(-order.size // max_group)
        slabs = round(leaves ** (1.0 / (k - axis))) if axis < k - 1 else 1
        # Never slice a slab below the group minimum: an undersized slab
        # could not be chunked legally further down.
        slabs = min(max(slabs, 1), order.size // lo)
        if axis >= k - 1 or slabs <= 1:
            offset = 0
            for size in chunk_sizes(order.size, lo, max_group, max_group):
                groups.append(order[offset : offset + size])
                offset += size
            return
        base, extra = divmod(order.size, slabs)
        sizes = [base + 1] * extra + [base] * (slabs - extra)
        offset = 0
        for size in sizes:
            tile(order[offset : offset + size], axis + 1)
            offset += size

    tile(np.arange(mu.shape[0], dtype=np.intp), 0)
    return groups


def chunk_sizes(n: int, lo: int, hi: int, target: int) -> list[int]:
    """Partition ``n`` items into chunks of size within ``[lo, hi]``.

    Chunks are as even as possible around ``target``. When ``n < lo`` a
    single undersized chunk is returned (only legal for a root node —
    callers handle that case).
    """
    if n <= 0:
        return []
    if not lo <= target <= hi:
        raise ValueError(f"target {target} outside [{lo}, {hi}]")
    if n <= hi:
        return [n]
    groups = max(1, round(n / target))
    while groups * hi < n:
        groups += 1
    while groups > 1 and n // groups < lo:
        groups -= 1
    base, extra = divmod(n, groups)
    sizes = [base + 1] * extra + [base] * (groups - extra)
    assert sum(sizes) == n
    return sizes


def bulk_load(
    vectors: Sequence[PFV],
    *,
    degree: int | None = None,
    layout=None,
    page_store=None,
    sigma_rule: SigmaRule = SigmaRule.CONVOLUTION,
    split_quality=None,
    fill: float = 0.75,
    ordering: str = "quality",
    seed: int = 0,
) -> GaussTree:
    """Build a Gauss-tree over ``vectors`` by quality-driven packing.

    ``ordering`` selects the leaf grouping: ``"quality"`` (default) uses
    the paper's hull-integral criterion, ``"spread"`` the generic
    normalised-spread tiling and ``"str"`` the Sort-Tile-Recursive
    packer (both ablation baselines). ``fill`` controls the inner-level
    fill factor; leaf fill follows from the median recursion. Other
    keyword arguments are forwarded to
    :class:`~repro.gausstree.tree.GaussTree`.

    Each leaf adopts its ``(n, d)`` slice of the input stacks as its
    columns, so ``save(path)`` encodes format-v3 pages straight from
    them.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("cannot bulk load an empty collection")
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    if ordering not in ("quality", "spread", "str"):
        raise ValueError(f"unknown ordering {ordering!r}")
    dims = vectors[0].dims
    kwargs = {}
    if split_quality is not None:
        kwargs["split_quality"] = split_quality
    tree = GaussTree(
        dims=dims,
        degree=degree,
        layout=layout,
        page_store=page_store,
        sigma_rule=sigma_rule,
        **kwargs,
    )
    if len(vectors) <= tree.leaf_max:
        tree.root.replace_entries(vectors)  # type: ignore[attr-defined]
        return tree

    mu = np.vstack([v.mu for v in vectors])
    sigma = np.vstack([v.sigma for v in vectors])
    if ordering == "quality":
        groups = quality_groups(mu, sigma, tree.leaf_max, seed=seed)
    elif ordering == "str":
        groups = str_groups(mu, sigma, tree.leaf_max)
    else:
        order = spatial_order(np.hstack([mu, sigma]))
        sizes = chunk_sizes(
            len(vectors),
            tree.leaf_min,
            tree.leaf_max,
            min(tree.leaf_max, max(tree.leaf_min, round(fill * tree.leaf_max))),
        )
        groups = []
        offset = 0
        for size in sizes:
            groups.append(order[offset : offset + size])
            offset += size

    tree.store.free(tree.root.page_id)  # discard the placeholder root leaf
    nodes: list[Node] = []
    for group in groups:
        leaf = LeafNode(tree.store.allocate())
        leaf.set_columns(
            mu[group], sigma[group], [vectors[int(i)].key for i in group]
        )
        nodes.append(leaf)

    inner_target = min(
        tree.inner_max, max(tree.inner_min, round(fill * tree.inner_max))
    )
    while len(nodes) > 1:
        if len(nodes) <= tree.inner_max:
            sizes = [len(nodes)]
        else:
            sizes = chunk_sizes(
                len(nodes), tree.inner_min, tree.inner_max, inner_target
            )
        parents: list[Node] = []
        offset = 0
        for size in sizes:
            parent = InnerNode(tree.store.allocate())
            for child in nodes[offset : offset + size]:
                parent.add_child(child)
            parents.append(parent)
            offset += size
        nodes = parents
    tree.root = nodes[0]
    return tree
