"""``repro.engine`` — one composable query surface over every backend.

The paper's thesis is that a single probabilistic query model (MLIQ /
TIQ over Gaussian pfv) can be served by interchangeable access methods.
This package makes that a literal API:

* :func:`connect` opens a :class:`Session` over a database, a list of
  pfv, or a saved index file, through any registered backend
  (``tree``, ``disk``, ``seqscan``, ``xtree`` built in);
* sessions execute the declarative specs :class:`MLIQ`, :class:`TIQ`,
  :class:`RankQuery`, :class:`ConsensusTopK` and :class:`ExpectedRank`
  — plus the write specs :class:`Insert` and
  :class:`Delete` on ``writable`` backends — via ``execute`` /
  ``execute_many``, always returning a :class:`ResultSet` (matches +
  merged stats + backend provenance), and ``explain`` describes the
  plan without running it;
* new access methods join by implementing the capability-declaring
  :class:`Backend` protocol and calling :func:`register_backend`.

Sessions are the only query surface: the 1.x per-method entry points
(``GaussTree.mliq`` and friends) were removed in 2.1.0; see README
"Query API" for the migration table. :func:`session_for` adopts an
already-built GaussTree, SequentialScanIndex or XTreePFVIndex, or a
ready :class:`BackendAdapter`.
"""

from repro.engine.backends import (
    Backend,
    BackendAdapter,
    CapabilityError,
    PlanEstimate,
    available_backends,
    register_backend,
)
from repro.engine.planner import Plan
from repro.engine.result import ResultSet
from repro.engine.session import Session, connect, session_for
from repro.engine.spec import (
    MLIQ,
    TIQ,
    ConsensusTopK,
    Delete,
    ExpectedRank,
    Insert,
    Query,
    RankQuery,
    Spec,
    WriteSpec,
)

__all__ = [
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
    "Query",
    "WriteSpec",
    "Spec",
    "ResultSet",
    "Plan",
    "Backend",
    "BackendAdapter",
    "PlanEstimate",
    "CapabilityError",
    "register_backend",
    "available_backends",
]
