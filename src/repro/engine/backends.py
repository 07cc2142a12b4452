"""Backend protocol, adapters and registry of the unified query engine.

Every access method in the repository — the in-memory Gauss-tree, the
disk-opened (read-only or writable) Gauss-tree, the paged sequential
scan and the X-tree filter+refine baseline — registers here behind one
capability-declaring :class:`Backend` surface. A
:class:`~repro.engine.session.Session` talks only to this surface; the
adapters translate to each method's internal entry points, which is the
only way queries reach those methods.

Capabilities are plain strings so third-party backends can extend the
vocabulary:

``"mliq"`` / ``"tiq"``
    answers that query kind (``RankQuery`` rides on ``"mliq"``);
``"batch"``
    has a native multi-query entry point sharing one pass/buffer —
    the executor then sends whole batches instead of looping;
``"exact"``
    answer sets provably equal the sequential-scan reference (the
    X-tree baseline lacks this: its quantile-rectangle filter allows
    false dismissals, which is the paper's own caveat);
``"writable"``
    accepts ``insert``/``delete`` through the session;
``"persistent"``
    backed by an index file on disk.

Use :func:`register_backend` to add a backend; factories receive the
coerced source (a :class:`~repro.core.database.PFVDatabase` or an index
path) plus the ``connect()`` keyword options they understand.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import Match, MLIQuery, QueryStats, ThresholdQuery
from repro.engine.spec import MLIQ, TIQ
from repro.storage.costmodel import PAPER_TESTBED

__all__ = [
    "Backend",
    "BackendAdapter",
    "PlanEstimate",
    "CapabilityError",
    "register_backend",
    "available_backends",
    "create_backend",
    "backend_for_index",
]


class CapabilityError(RuntimeError):
    """An operation the connected backend does not declare support for."""


class PlanEstimate:
    """Planner-facing cost guess: pages, modeled IO/CPU seconds, one note.

    Estimates are order-of-magnitude planning hints: a backend predicts
    the counters a batch will report and :meth:`priced` prices them on
    the paper's 2006 testbed; the counters of an actual execution's
    :class:`~repro.core.queries.QueryStats` are the ground truth.
    ``cpu_seconds`` prices the expected refinement work — the
    Gauss-tree, whose leaves are all columnar, at the cost model's
    vectorized rate, so ``explain()`` reflects the columnar kernel.
    """

    __slots__ = ("pages", "io_seconds", "note", "cpu_seconds")

    def __init__(
        self,
        pages: int,
        io_seconds: float,
        note: str,
        cpu_seconds: float = 0.0,
    ) -> None:
        self.pages = pages
        self.io_seconds = io_seconds
        self.note = note
        self.cpu_seconds = cpu_seconds

    @classmethod
    def priced(
        cls, stats: QueryStats, note: str, *, vectorized: bool
    ) -> "PlanEstimate":
        """The estimate of the predicted counters ``stats``, priced by
        :meth:`~repro.storage.costmodel.DiskCostModel.price` on
        :data:`~repro.storage.costmodel.PAPER_TESTBED` (the ruler Figure
        7 prices on)."""
        io_seconds, cpu_seconds = PAPER_TESTBED.price(
            stats, vectorized=vectorized
        )
        return cls(stats.pages_accessed, io_seconds, note, cpu_seconds)


@runtime_checkable
class Backend(Protocol):
    """What a registered access method must provide to the executor."""

    name: str
    capabilities: frozenset[str]

    def run_mliq(
        self, specs: Sequence[MLIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer a batch of MLIQ specs: per-spec match lists + stats."""
        ...

    def run_tiq(
        self, specs: Sequence[TIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer a batch of TIQ specs: per-spec match lists + stats."""
        ...

    def count(self) -> int:
        """Number of objects the backend serves."""
        ...

    def estimate(self, kind: str, specs: Sequence) -> PlanEstimate:
        """Planner cost guess for one kind's sub-batch."""
        ...


class BackendAdapter:
    """Shared template for the built-in adapters.

    Implements the normalised edge-case semantics of
    :mod:`repro.engine.spec` once — ``k == 0`` and empty-backend specs
    short-circuit to the empty list here, so subclasses only translate
    well-posed legacy queries via ``_mliq_batch`` / ``_tiq_batch``.
    """

    name = "abstract"
    capabilities: frozenset[str] = frozenset()

    # -- template ------------------------------------------------------------

    def run_mliq(
        self, specs: Sequence[MLIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer a batch of MLIQ specs (normalised edge cases applied
        here; well-posed queries delegate to ``_mliq_batch``)."""
        self._require("mliq")
        results: list[list[Match]] = [[] for _ in specs]
        if self.count() == 0:
            return results, QueryStats()
        live = [(i, spec.lower()) for i, spec in enumerate(specs) if spec.k > 0]
        if not live:
            return results, QueryStats()
        answered, stats = self._mliq_batch([q for _, q in live])
        for (i, _), matches in zip(live, answered):
            results[i] = matches
        return results, stats

    def run_tiq(
        self, specs: Sequence[TIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer a batch of TIQ specs (normalised edge cases applied
        here; well-posed queries delegate to ``_tiq_batch``)."""
        self._require("tiq")
        if self.count() == 0 or not specs:
            return [[] for _ in specs], QueryStats()
        return self._tiq_batch(list(specs))

    def run_ranked(
        self, specs: Sequence
    ) -> tuple[list[list[Match]], QueryStats]:
        """Answer a batch of ``ConsensusTopK``/``ExpectedRank`` specs by
        MLIQ lowering plus exact rescoring of the returned prefix (see
        :mod:`repro.engine.semantics`). Any backend that answers MLIQ
        answers the ranked semantics; composite backends override to
        merge per-shard sufficient statistics instead."""
        from repro.engine.semantics import score_ranked

        answered, stats = self.run_mliq([s.lower() for s in specs])
        return (
            [
                score_ranked(spec, matches)
                for spec, matches in zip(specs, answered)
            ],
            stats,
        )

    def _require(self, capability: str) -> None:
        if capability not in self.capabilities:
            raise CapabilityError(
                f"backend {self.name!r} does not support {capability!r} "
                f"(capabilities: {sorted(self.capabilities)})"
            )

    # -- to be provided by subclasses ---------------------------------------

    def _mliq_batch(
        self, queries: list[MLIQuery]
    ) -> tuple[list[list[Match]], QueryStats]:
        raise NotImplementedError

    def _tiq_batch(
        self, specs: list[TIQ]
    ) -> tuple[list[list[Match]], QueryStats]:
        raise NotImplementedError

    def count(self) -> int:
        """Number of objects the backend serves."""
        raise NotImplementedError

    def estimate(self, kind: str, specs: Sequence) -> PlanEstimate:
        """Planner cost guess for one kind's sub-batch."""
        raise NotImplementedError

    # -- optional write surface ----------------------------------------------

    def insert_many(self, vectors: Iterable[PFV]) -> int:
        """Insert a batch, returning the number inserted (writable
        backends override; the one write entry point for inserts)."""
        raise CapabilityError(f"backend {self.name!r} is not writable")

    def delete(self, v: PFV) -> bool:
        """Delete one pfv, reporting whether it was found (writable
        backends override)."""
        raise CapabilityError(f"backend {self.name!r} is not writable")

    def flush(self) -> None:
        """Durability checkpoint (default: no-op)."""

    def close(self) -> None:
        """Release file handles / worker pools (default: no-op)."""

    def cold_start(self) -> None:
        """Drop the page cache (evaluation protocol hook)."""
        store = getattr(self, "store", None)
        if store is not None:
            store.cold_start()

    def database(self) -> PFVDatabase:
        """Materialise the stored objects (for workload generation)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} n={self.count()}>"


# ---------------------------------------------------------------------------
# Gauss-tree adapters (in-memory and disk)
# ---------------------------------------------------------------------------


class GaussTreeBackend(BackendAdapter):
    """Adapter over a :class:`~repro.gausstree.tree.GaussTree`.

    Used for three registered names: ``"tree"`` (in-memory, bulk-loaded
    from the source database), ``"disk"`` (read-only lazy-page open)
    and ``"disk-writable"`` (WAL-durable open). An in-memory tree built
    from a database is always writable; disk trees are writable only
    when opened so.
    """

    def __init__(
        self,
        tree,
        name: str,
        *,
        writable: bool,
        persistent: bool,
        mliq_tolerance: float = 1e-9,
        tiq_tolerance: float = 0.0,
        probability_tolerance: float | None = None,
    ) -> None:
        self.tree = tree
        self.name = name
        self.store = tree.store
        self.mliq_tolerance = mliq_tolerance
        self.tiq_tolerance = tiq_tolerance
        self.probability_tolerance = probability_tolerance
        caps = {"mliq", "tiq", "batch", "exact"}
        if writable:
            caps.add("writable")
        if persistent:
            caps.add("persistent")
        self.capabilities = frozenset(caps)

    def _mliq_batch(self, queries):
        from repro.gausstree.batch import gausstree_mliq_many

        return gausstree_mliq_many(
            self.tree, queries, tolerance=self.mliq_tolerance
        )

    def _tiq_batch(self, specs):
        from repro.gausstree.batch import gausstree_tiq_many

        # Group by decision slack so a loose query's eps never loosens a
        # strict one sharing the batch; one shared pass per group.
        groups: dict[float, list[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(spec.eps, []).append(i)
        results: list[list[Match]] = [[] for _ in specs]
        total = QueryStats()
        for eps, indices in groups.items():
            answered, stats = gausstree_tiq_many(
                self.tree,
                [specs[i].lower() for i in indices],
                tolerance=max(self.tiq_tolerance, eps),
                probability_tolerance=self.probability_tolerance,
            )
            for i, matches in zip(indices, answered):
                results[i] = matches
            total.merge(stats)
        return results, total

    def count(self) -> int:
        return len(self.tree)

    def estimate(self, kind: str, specs: Sequence) -> PlanEstimate:
        """Price what runs: a k-MLIQ on a root leaf or a two-level tree
        sweeps by shape, and on a deeper tree at a finite tolerance the
        leaf-hull census (:func:`~repro.gausstree.mliq.census_sweeps`)
        picks the sweep or the traversal, asked here as the query will
        ask it, without touching the page accounting. A sweep reads every
        node page and refines every row; a traversal is priced as a
        best-first descent."""
        from repro.gausstree.batch import BatchRefiner
        from repro.gausstree.mliq import census_sweeps, sweeps_every_mliq

        tree = self.tree
        n = len(tree)
        if n == 0 or not specs:
            return PlanEstimate(0, 0.0, "empty index: no pages touched")
        # Who decides the path: the tree's shape, the census, or no one
        # (a TIQ, or a rank-only MLIQ, always traverses).
        path = None
        swept = 0
        if kind != "tiq":
            if sweeps_every_mliq(tree):
                path = "one-page tree" if tree.root.is_leaf else (
                    "two-level tree"
                )
                swept = len(specs)
            elif math.isfinite(self.mliq_tolerance):
                path = "leaf-hull census"
                refiner = BatchRefiner(tree, [spec.q for spec in specs])
                swept = sum(
                    census_sweeps(
                        refiner, i, max(1, spec.k), self.mliq_tolerance
                    )
                    for i, spec in enumerate(specs)
                )
        traversed = len(specs) - swept
        pages = objects = 0
        notes = []
        if swept:
            pages = len(tree.leaf_directory().page_ids) * swept
            objects = n * swept
            who = (
                f"{swept} of {len(specs)} queries sweep"
                if traversed
                else "every query sweeps"
            )
            notes.append(
                f"{path}: {who} the leaf stack, reading every node page "
                "and refining every row"
            )
        if traversed:
            height = tree.height
            leaves = max(1, math.ceil(n / max(1, tree.leaf_min)))
            if kind == "tiq":
                leaf_reads = max(1, math.ceil(0.1 * leaves))
                notes.append(
                    "best-first traversal pruned by denominator bounds; "
                    "~10% of leaves is a coarse prior, selectivity decides"
                )
            else:
                k = max(getattr(s, "k", 1) for s in specs)
                leaf_reads = max(1, math.ceil(k / max(1, tree.leaf_min)))
                traversal = (
                    "best-first traversal: inner path plus ~k/M leaves; "
                    "actual pages depend on how well MBRs separate, and a "
                    "query they stop separating sweeps every leaf row"
                )
                if swept:
                    traversal = f"the other {traversed} take a {traversal}"
                elif path is not None:
                    traversal = f"{path}: every query takes a {traversal}"
                notes.append(traversal)
            pages += ((height - 1) + leaf_reads) * traversed
            # Every visited leaf refines its whole page with the
            # columnar kernel.
            objects += leaf_reads * max(1, math.ceil(n / leaves)) * traversed
        # Every page is priced as a cold random read.
        return PlanEstimate.priced(
            QueryStats(
                pages_accessed=pages,
                page_faults=pages,
                objects_refined=objects,
            ),
            "; ".join(notes) + "; columnar leaves: refinement priced at "
            "the vectorized rate",
            vectorized=True,
        )

    # -- writes --------------------------------------------------------------

    def insert_many(self, vectors: Iterable[PFV]) -> int:
        """Insert a batch as one group-commit WAL transaction (single
        fsync, page images deduplicated; all-or-nothing recovery)."""
        self._require("writable")
        return self.tree.insert_many(vectors)

    def delete(self, v: PFV) -> bool:
        """Delete one pfv, reporting whether it was found."""
        self._require("writable")
        return self.tree.delete(v)

    def flush(self) -> None:
        """Checkpoint the tree's WAL into the main file (no-op for
        in-memory trees)."""
        self.tree.flush()

    def close(self) -> None:
        close = getattr(self.tree, "close", None)
        if close is not None and "persistent" in self.capabilities:
            close()

    def database(self) -> PFVDatabase:
        return PFVDatabase(list(self.tree), sigma_rule=self.tree.sigma_rule)


class _EmptyTreeBackend(BackendAdapter):
    """In-memory tree over an empty source whose dimensionality is still
    unknown: answers everything with the empty result and builds the
    real tree on the first ``insert_many`` (which fixes ``d``). The source's
    sigma rule is carried over to the promoted tree."""

    def __init__(self, name: str, sigma_rule, options: dict) -> None:
        self.name = name
        self.capabilities = frozenset(
            {"mliq", "tiq", "batch", "exact", "writable"}
        )
        self._sigma_rule = sigma_rule
        self._options = dict(options)
        self._promoted: GaussTreeBackend | None = None

    def run_mliq(self, specs):
        if self._promoted is not None:
            return self._promoted.run_mliq(specs)
        return [[] for _ in specs], QueryStats()

    def run_tiq(self, specs):
        if self._promoted is not None:
            return self._promoted.run_tiq(specs)
        return [[] for _ in specs], QueryStats()

    def count(self) -> int:
        return 0 if self._promoted is None else self._promoted.count()

    def estimate(self, kind, specs):
        if self._promoted is not None:
            return self._promoted.estimate(kind, specs)
        return PlanEstimate(0, 0.0, "empty index: no pages touched")

    def insert_many(self, vectors: Iterable[PFV]) -> int:
        """Promote on the whole batch at once (bulk load), or delegate
        to the promoted tree's group-commit batch insert."""
        batch = list(vectors)
        if not batch:
            return 0
        if self._promoted is None:
            self._promoted = _tree_backend_from_db(
                PFVDatabase(batch, sigma_rule=self._sigma_rule),
                self.name,
                self._options,
            )
            return len(batch)
        return self._promoted.insert_many(batch)

    def delete(self, v: PFV) -> bool:
        """Delete from the promoted tree (always False while empty)."""
        return False if self._promoted is None else self._promoted.delete(v)

    def database(self) -> PFVDatabase:
        if self._promoted is not None:
            return self._promoted.database()
        return PFVDatabase(sigma_rule=self._sigma_rule)

    def cold_start(self) -> None:
        if self._promoted is not None:
            self._promoted.cold_start()


# ---------------------------------------------------------------------------
# Sequential-scan adapter
# ---------------------------------------------------------------------------


class SeqScanBackend(BackendAdapter):
    """The paper's "Seq. File" competitor behind the engine surface."""

    name = "seqscan"

    def __init__(self, index) -> None:
        self.index = index
        self.store = index.store
        self.capabilities = frozenset({"mliq", "tiq", "batch", "exact"})

    def _mliq_batch(self, queries):
        return self.index._mliq_many_impl(queries)

    def _tiq_batch(self, specs):
        return self.index._tiq_many_impl([s.lower() for s in specs])

    def count(self) -> int:
        return len(self.index.db)

    def estimate(self, kind: str, specs: Sequence) -> PlanEstimate:
        pages = self.index.file_pages
        if pages == 0 or not specs:
            return PlanEstimate(0, 0.0, "empty file: no pages touched")
        passes = 2 if kind == "tiq" else 1
        total = passes * pages
        return PlanEstimate.priced(
            QueryStats(
                pages_accessed=total,
                page_faults=total,
                faulted_runs=passes,
                faulted_run_pages=total,
                objects_refined=self.count() * len(specs),
            ),
            "full sequential pass(es) shared by the whole batch; "
            "streaming IO, one positioning delay per pass",
            vectorized=False,
        )

    def database(self) -> PFVDatabase:
        return self.index.db


# ---------------------------------------------------------------------------
# X-tree filter+refine adapter
# ---------------------------------------------------------------------------


class XTreeBackend(BackendAdapter):
    """The X-tree quantile-rectangle baseline: approximate by design
    (false dismissals possible), hence no ``"exact"`` capability."""

    name = "xtree"

    def __init__(self, index) -> None:
        self.index = index
        self.store = index.store
        self.capabilities = frozenset({"mliq", "tiq"})

    def _mliq_batch(self, queries):
        results, total = [], QueryStats()
        for query in queries:
            matches, stats = self.index._mliq_impl(query)
            results.append(matches)
            total.merge(stats)
        return results, total

    def _tiq_batch(self, specs):
        results, total = [], QueryStats()
        for spec in specs:
            matches, stats = self.index._tiq_impl(spec.lower())
            results.append(matches)
            total.merge(stats)
        return results, total

    def count(self) -> int:
        return len(self.index.db)

    def estimate(self, kind: str, specs: Sequence) -> PlanEstimate:
        n = self.count()
        if n == 0 or not specs:
            return PlanEstimate(0, 0.0, "empty index: no pages touched")
        base_pages = len(self.index._base_pages)
        # Traversal of the box tree plus random base-table fetches for
        # the candidates — the fetches dominate (the paper's reason the
        # X-tree loses to the scan on MLIQ).
        per_query = max(2, math.ceil(0.15 * base_pages)) + max(
            1, math.ceil(0.1 * base_pages)
        )
        pages = per_query * len(specs)
        return PlanEstimate.priced(
            QueryStats(
                pages_accessed=pages,
                page_faults=pages,
                objects_refined=max(1, math.ceil(0.1 * n)) * len(specs),
            ),
            "rectangle filter + random base-table refinement fetches; "
            "approximate answers (false dismissals possible)",
            vectorized=False,
        )

    def database(self) -> PFVDatabase:
        return self.index.db


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, tuple[Callable, str]] = {}


def register_backend(
    name: str,
    factory: Callable[..., Backend],
    description: str = "",
    *,
    replace: bool = False,
) -> None:
    """Register a backend factory under ``name``.

    ``factory(source, writable=..., options=...)`` receives the
    ``connect()`` source (a :class:`~repro.core.database.PFVDatabase`
    or a filesystem path) and must return a :class:`Backend`.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = (factory, description)


def available_backends() -> dict[str, str]:
    """Registered backend names mapped to their one-line descriptions."""
    return {name: desc for name, (_, desc) in sorted(_REGISTRY.items())}


def create_backend(
    name: str, source, *, writable: bool = False, options: dict | None = None
) -> Backend:
    """Instantiate a registered backend over ``source``."""
    try:
        factory, _ = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None
    return factory(source, writable=writable, options=dict(options or {}))


def backend_for_index(index, name: str | None = None, **options) -> Backend:
    """Wrap an already-built index object in its engine adapter — the
    bridge the evaluation runner uses for pre-constructed competitors.

    Accepts a :class:`~repro.gausstree.tree.GaussTree`, a
    :class:`~repro.baselines.seqscan.SequentialScanIndex`, an
    :class:`~repro.baselines.xtree_pfv.XTreePFVIndex` or a ready
    :class:`BackendAdapter` (returned as-is); anything else raises
    ``TypeError``. ``options`` are forwarded to the adapter; only the
    Gauss-tree adapter takes any (``mliq_tolerance``,
    ``tiq_tolerance``, ``probability_tolerance``)."""
    from repro.baselines.seqscan import SequentialScanIndex
    from repro.baselines.xtree_pfv import XTreePFVIndex
    from repro.gausstree.tree import GaussTree

    if isinstance(index, BackendAdapter):
        if options:
            raise TypeError("a ready Backend accepts no adapter options")
        return index
    if isinstance(index, GaussTree):
        return GaussTreeBackend(
            index,
            name or "tree",
            writable=not index.read_only,
            persistent=hasattr(index.store, "path"),
            **options,
        )
    if options:
        raise TypeError(
            f"adapter for {type(index).__name__} accepts no options, "
            f"got {sorted(options)}"
        )
    if isinstance(index, SequentialScanIndex):
        backend = SeqScanBackend(index)
        if name:
            backend.name = name
        return backend
    if isinstance(index, XTreePFVIndex):
        backend = XTreeBackend(index)
        if name:
            backend.name = name
        return backend
    raise TypeError(
        f"cannot adopt {type(index).__name__}: expected a GaussTree, "
        "SequentialScanIndex, XTreePFVIndex or BackendAdapter"
    )


# -- source coercion ---------------------------------------------------------


def _is_pathlike(source) -> bool:
    return isinstance(source, (str, os.PathLike))


def as_database(source) -> PFVDatabase:
    """Coerce a connect() source into a :class:`PFVDatabase`.

    Accepts a database (returned as-is), an iterable of pfv, or the
    path of a saved index file (opened read-only and materialised).
    """
    if isinstance(source, PFVDatabase):
        return source
    if _is_pathlike(source):
        from repro.gausstree.tree import GaussTree

        tree = GaussTree.open(source)
        try:
            return PFVDatabase(list(tree), sigma_rule=tree.sigma_rule)
        finally:
            tree.close()
    if isinstance(source, Iterable):
        return PFVDatabase(list(source))
    raise TypeError(
        f"cannot interpret {type(source).__name__} as a query source "
        "(expected PFVDatabase, iterable of PFV, or an index file path)"
    )


# -- built-in factories ------------------------------------------------------


def _tree_backend_from_db(
    db: PFVDatabase, name: str, options: dict
) -> GaussTreeBackend:
    from repro.gausstree.bulkload import bulk_load

    tree = bulk_load(
        db.vectors,
        degree=options.pop("degree", None),
        layout=options.pop("layout", None),
        page_store=options.pop("page_store", None),
        sigma_rule=db.sigma_rule,
    )
    return GaussTreeBackend(
        tree, name, writable=True, persistent=False, **options
    )


def _make_tree(source, *, writable: bool, options: dict) -> Backend:
    db = as_database(source)
    if len(db) == 0:
        return _EmptyTreeBackend("tree", db.sigma_rule, options)
    return _tree_backend_from_db(db, "tree", options)


def _make_disk(source, *, writable: bool, options: dict) -> Backend:
    if not _is_pathlike(source):
        raise TypeError(
            "the 'disk' backend needs an index file path; build one with "
            "GaussTree.save / `repro build`, or use backend='tree'"
        )
    from repro.gausstree.tree import GaussTree

    open_kwargs = {
        key: options.pop(key)
        for key in ("buffer", "fsync", "auto_checkpoint_bytes")
        if key in options
    }
    tree = GaussTree.open(source, writable=writable, **open_kwargs)
    return GaussTreeBackend(
        tree,
        "disk-writable" if writable else "disk",
        writable=writable,
        persistent=True,
        **options,
    )


def _make_seqscan(source, *, writable: bool, options: dict) -> Backend:
    from repro.baselines.seqscan import SequentialScanIndex

    db = as_database(source)
    index = SequentialScanIndex(
        db,
        layout=options.pop("layout", None),
        page_store=options.pop("page_store", None),
    )
    if options:  # same contract as the other factories: no silent drops
        raise TypeError(
            f"the 'seqscan' backend accepts no options {sorted(options)}"
        )
    return SeqScanBackend(index)


def _make_xtree(source, *, writable: bool, options: dict) -> Backend:
    from repro.baselines.xtree_pfv import XTreePFVIndex

    db = as_database(source)
    return XTreeBackend(XTreePFVIndex(db, **options))


register_backend(
    "tree",
    _make_tree,
    "in-memory Gauss-tree, bulk-loaded from the source (exact, writable)",
)
register_backend(
    "disk",
    _make_disk,
    "disk-resident Gauss-tree index file; lazy page-decoded nodes, "
    "WAL-durable writes when connected writable",
)
register_backend(
    "seqscan",
    _make_seqscan,
    "paged sequential scan of the full database (exact reference)",
)
register_backend(
    "xtree",
    _make_xtree,
    "X-tree over 95%-quantile rectangles, filter+refine (approximate)",
)
