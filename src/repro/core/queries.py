"""Query specifications and result types (Definitions 2 and 3 of the paper).

Two identification query types operate on a database of probabilistic
feature vectors:

* **Threshold identification query** — ``TIQ(q, p_theta)`` returns every
  database object whose posterior ``P(v|q)`` reaches the threshold
  (Definition 2; "all persons that could be shown on this image with
  probability at least 10%").
* **k-most-likely identification query** — ``k-MLIQ(q, k)`` returns the
  ``k`` objects of maximal posterior (Definition 3; "the 10 most likely
  persons on this image").

Every access method in this repository (sequential scan, Gauss-tree,
X-tree filter+refine) answers these same specs and returns the same
:class:`Match` records, so results are directly comparable — the test
suite asserts scan/tree equivalence on randomized databases. Inside the
engine the Gauss-tree hands back :class:`RowMatch` references instead,
which the engine builds into matches before any caller sees them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Hashable

from repro.core.pfv import PFV

__all__ = [
    "MLIQuery",
    "ThresholdQuery",
    "Match",
    "RowMatch",
    "QueryStats",
    "built",
]


@dataclasses.dataclass(frozen=True)
class MLIQuery:
    """A k-most-likely identification query (Definition 3)."""

    q: PFV
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


@dataclasses.dataclass(frozen=True)
class ThresholdQuery:
    """A threshold identification query (Definition 2)."""

    q: PFV
    p_theta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_theta <= 1.0:
            raise ValueError(
                f"p_theta must be a probability in [0, 1], got {self.p_theta}"
            )


@dataclasses.dataclass(frozen=True)
class Match:
    """One answer object of an identification query.

    Attributes
    ----------
    vector:
        The matching database pfv.
    log_density:
        ``log p(q | vector)`` — the (relative) Lemma-1 joint density.
    probability:
        The Bayes posterior ``P(vector | q)``.
    score:
        Semantics-specific value attached by the ranking specs of the
        engine (``None`` for plain MLIQ/TIQ answers): the per-world
        membership probability for ``ConsensusTopK``, the expected rank
        for ``ExpectedRank``. Construction stays positional-compatible
        for the three original fields.
    """

    vector: PFV
    log_density: float
    probability: float
    score: float | None = None

    @property
    def key(self) -> Hashable:
        """Key of the matched real-world object."""
        return self.vector.key

    def __repr__(self) -> str:
        extra = "" if self.score is None else f", score={self.score:.4f}"
        return (
            f"Match(key={self.vector.key!r}, P={self.probability:.4f}, "
            f"log_p(q|v)={self.log_density:.2f}{extra})"
        )


class RowMatch:
    """A :class:`Match` whose pfv is not built yet: the log density, the
    posterior and the stored row the match came from, as a leaf (any
    object with ``entry_at(row)``) and a row index.

    The Gauss-tree's query finishes return these, so a sharded merge
    that keeps 5 of 40 shard candidates builds the pfv of those 5 only.
    :meth:`build` makes the :class:`Match` through ``leaf.entry_at``, so
    a row added from a caller's pfv hands back that same object. A
    reference is valid until its tree next changes, so the engine builds
    every answer before returning it (``Session.execute``).

    ``vector`` and ``key`` read as a match's do, building the pfv on
    every access.
    """

    __slots__ = ("leaf", "row", "log_density", "probability")

    score = None  # plain MLIQ/TIQ answers carry no semantics score

    def __init__(
        self, leaf, row: int, log_density: float, probability: float
    ) -> None:
        self.leaf = leaf
        self.row = row
        self.log_density = log_density
        self.probability = probability

    @property
    def vector(self) -> PFV:
        """The stored pfv, built now (``leaf.entry_at(row)``)."""
        return self.leaf.entry_at(self.row)

    @property
    def key(self) -> Hashable:
        """Key of the matched real-world object."""
        return self.vector.key

    def build(self) -> Match:
        """The :class:`Match` this reference stands for."""
        return Match(self.vector, self.log_density, self.probability)

    def __repr__(self) -> str:
        return (
            f"RowMatch(row={self.row}, P={self.probability:.4f}, "
            f"log_p(q|v)={self.log_density:.2f})"
        )


def built(matches) -> list[Match]:
    """``matches`` with every :class:`RowMatch` built into its
    :class:`Match` (matches already built pass through)."""
    return [m.build() if type(m) is RowMatch else m for m in matches]


@dataclasses.dataclass
class QueryStats:
    """Work counters filled in by the executing access method.

    ``pages_accessed`` counts *logical* page reads (buffer hits included);
    ``page_faults`` counts the subset that missed the buffer. Of those,
    ``faulted_run_pages`` were faulted by the ``faulted_runs`` sequential
    runs that faulted at all (the sequential scan's passes); the rest
    were random reads. ``objects_refined`` counts exact Lemma-1 density
    evaluations; ``nodes_expanded`` counts index nodes popped from the
    priority queue (0 for the sequential scan), and a k-MLIQ that sweeps
    a two-level tree counts the root it expands, 1. ``swept`` counts the
    queries a Gauss-tree k-MLIQ answered with one exact sweep of every
    leaf row: on a two-level tree every k-MLIQ (see
    :func:`repro.gausstree.batch.gausstree_mliq_many`), on a deeper tree
    one whose hulls stopped pruning (see :mod:`repro.gausstree.mliq`);
    the sweep's pages count as accessed and its rows as refined.

    ``cpu_seconds`` is the one time column: *measured* wall time. The
    2006 testbed of :mod:`repro.storage.costmodel` prices the counters
    where a price is wanted, in Figure 7 and ``explain()``.
    """

    pages_accessed: int = 0
    page_faults: int = 0
    objects_refined: int = 0
    nodes_expanded: int = 0
    cpu_seconds: float = 0.0
    buffer_evictions: int = 0
    swept: int = 0
    faulted_runs: int = 0
    faulted_run_pages: int = 0

    @classmethod
    def from_log(
        cls,
        log,
        started: float,
        objects_refined: int,
        nodes_expanded: int = 0,
    ) -> "QueryStats":
        """A query's stats: the page counters of a store's
        :class:`~repro.storage.pagestore.AccessLog` since
        ``begin_query``, the given refinement and expansion counts, and
        the wall time since ``started``."""
        return cls(
            pages_accessed=log.pages_accessed,
            page_faults=log.page_faults,
            objects_refined=objects_refined,
            nodes_expanded=nodes_expanded,
            cpu_seconds=time.perf_counter() - started,
            buffer_evictions=log.evictions,
            faulted_runs=log.faulted_runs,
            faulted_run_pages=log.faulted_run_pages,
        )

    @property
    def buffer_hit_ratio(self) -> float:
        """Observed buffer hit ratio for this query (0 when no pages
        were accessed), recorded in the slow-query log beside the
        ``explain()`` plan's page estimate."""
        if not self.pages_accessed:
            return 0.0
        return (self.pages_accessed - self.page_faults) / self.pages_accessed

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for batches)."""
        self.pages_accessed += other.pages_accessed
        self.page_faults += other.page_faults
        self.objects_refined += other.objects_refined
        self.nodes_expanded += other.nodes_expanded
        self.cpu_seconds += other.cpu_seconds
        self.buffer_evictions += other.buffer_evictions
        self.swept += other.swept
        self.faulted_runs += other.faulted_runs
        self.faulted_run_pages += other.faulted_run_pages
