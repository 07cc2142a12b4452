"""Reproduction of "The Gauss-Tree: Efficient Object Identification in
Databases of Probabilistic Feature Vectors" (Boehm, Pryakhin, Schubert;
ICDE 2006).

Public API overview
-------------------
Model (Sections 3-4):
    :class:`repro.core.PFV` — probabilistic feature vectors,
    :class:`repro.core.PFVDatabase`, :class:`repro.core.SigmaRule`,
    :func:`repro.core.scan_mliq` / :func:`repro.core.scan_tiq` — the exact
    sequential-scan reference algorithms.

Index (Section 5):
    :class:`repro.gausstree.GaussTree` with ``insert`` / ``delete``,
    disk persistence via ``save`` / ``open`` (single-file index, lazy
    page-decoded nodes) and :func:`repro.gausstree.bulk_load`; queries
    go through a session (``session_for(tree)`` or ``connect``), and
    the traversal functions :func:`repro.gausstree.gausstree_mliq` /
    :func:`repro.gausstree.gausstree_tiq` (plus their ``*_many`` batch
    forms) are what the tree backends call.

Unified query engine (the query surface):
    :func:`repro.connect` — open a :class:`repro.Session` over a
    database, a list of pfv, or a saved index file, through any
    registered backend (``tree``, ``disk``, ``seqscan``, ``xtree``);
    execute the composable specs :class:`repro.MLIQ`,
    :class:`repro.TIQ`, :class:`repro.RankQuery`,
    :class:`repro.ConsensusTopK` and :class:`repro.ExpectedRank`;
    ``explain()`` describes the plan. It is the only query surface:
    see README "Query API" for the migration table from the per-method
    entry points removed in 2.1.0.

Sharded serving (scale-out):
    :mod:`repro.cluster` — ``repro shard-build`` partitions a database
    into per-shard indexes behind a manifest; ``connect(manifest,
    backend="sharded")`` fans batches out to the shard sessions one
    after another and merges globally renormalised posteriors;
    ``repro serve`` exposes any session as a concurrent
    JSON HTTP endpoint. See README "Sharded serving".

Baselines (Section 6):
    :class:`repro.baselines.XTreePFVIndex`,
    :class:`repro.baselines.SequentialScanIndex`,
    :func:`repro.baselines.knn_euclidean`.

Data / evaluation:
    :mod:`repro.data` (datasets and ground-truthed workloads) and
    :mod:`repro.eval` (the figure-by-figure experiment harness).

See ``examples/quickstart.py`` for a five-minute tour and
``docs/architecture.md`` for the full system inventory.
"""

from repro.core import (
    PFV,
    Match,
    MLIQuery,
    PFVDatabase,
    ProbabilisticFeatureVector,
    QueryStats,
    SigmaRule,
    ThresholdQuery,
    scan_mliq,
    scan_tiq,
)
from repro.engine import (
    MLIQ,
    TIQ,
    ConsensusTopK,
    Delete,
    ExpectedRank,
    Insert,
    RankQuery,
    ResultSet,
    Session,
    connect,
    session_for,
)
from repro.gausstree import GaussTree, bulk_load

# Importing the cluster package registers the "sharded" backend with the
# engine registry, so connect(..., backend="sharded") works out of the
# box (the subsystem itself is stdlib-only on top of the engine).
import repro.cluster  # noqa: E402,F401  (registration side effect)

__version__ = "2.6.6"

__all__ = [
    "PFV",
    "ProbabilisticFeatureVector",
    "PFVDatabase",
    "SigmaRule",
    "Match",
    "MLIQuery",
    "ThresholdQuery",
    "QueryStats",
    "scan_mliq",
    "scan_tiq",
    "GaussTree",
    "bulk_load",
    "connect",
    "Session",
    "session_for",
    "MLIQ",
    "TIQ",
    "RankQuery",
    "ConsensusTopK",
    "ExpectedRank",
    "Insert",
    "Delete",
    "ResultSet",
    "__version__",
]
