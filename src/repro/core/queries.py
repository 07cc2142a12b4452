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
suite asserts scan/tree equivalence on randomized databases.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable

from repro.core.pfv import PFV

__all__ = ["MLIQuery", "ThresholdQuery", "Match", "QueryStats"]


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


@dataclasses.dataclass
class QueryStats:
    """Work counters filled in by the executing access method.

    ``pages_accessed`` counts *logical* page reads (buffer hits included);
    ``page_faults`` counts the subset that missed the buffer and paid
    simulated disk IO. ``objects_refined`` counts exact Lemma-1 density
    evaluations; ``nodes_expanded`` counts index nodes popped from the
    priority queue (0 for the sequential scan), and a k-MLIQ that sweeps
    a two-level tree counts the root it expands, 1. ``swept`` counts the
    queries a Gauss-tree k-MLIQ answered with one exact sweep of every
    leaf row: on a two-level tree every k-MLIQ (see
    :func:`repro.gausstree.batch.gausstree_mliq_many`), on a deeper tree
    one whose hulls stopped pruning (see :mod:`repro.gausstree.mliq`);
    the sweep's pages count as accessed and its rows as refined.

    Two time columns coexist (see ``repro.storage.costmodel``):
    ``cpu_seconds`` is *measured* Python wall time, while
    ``modeled_cpu_seconds`` prices the work counters at the paper's
    2006-testbed rates — the figure-7 harness reports the modeled
    numbers because numpy's vectorisation advantage for the sequential
    scan would otherwise invert the paper's CPU ratios.
    """

    pages_accessed: int = 0
    page_faults: int = 0
    objects_refined: int = 0
    nodes_expanded: int = 0
    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    modeled_cpu_seconds: float = 0.0
    buffer_evictions: int = 0
    swept: int = 0

    @property
    def total_seconds(self) -> float:
        """Measured CPU plus modelled disk IO."""
        return self.cpu_seconds + self.io_seconds

    @property
    def buffer_hit_ratio(self) -> float:
        """Observed buffer hit ratio for this query (0 when no pages
        were accessed) — comparable against ``explain()``'s estimate
        in the slow-query log."""
        if not self.pages_accessed:
            return 0.0
        return (self.pages_accessed - self.page_faults) / self.pages_accessed

    @property
    def modeled_total_seconds(self) -> float:
        """Fully modeled overall time (2006 CPU + 2006 disk)."""
        return self.modeled_cpu_seconds + self.io_seconds

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for batches)."""
        self.pages_accessed += other.pages_accessed
        self.page_faults += other.page_faults
        self.objects_refined += other.objects_refined
        self.nodes_expanded += other.nodes_expanded
        self.cpu_seconds += other.cpu_seconds
        self.io_seconds += other.io_seconds
        self.modeled_cpu_seconds += other.modeled_cpu_seconds
        self.buffer_evictions += other.buffer_evictions
        self.swept += other.swept
