"""The connection-style facade: ``connect(source) -> Session``.

One composable query surface over every backend: a session executes the
declarative specs of :mod:`repro.engine.spec` through whichever access
method it was connected with and always returns the same
:class:`~repro.engine.result.ResultSet` shape. This is the seam the
ROADMAP's scaling work (sharding, async serving, backend choosers)
plugs into — everything above it (CLI, evaluation runner, benchmarks)
already speaks only this surface.

    import repro

    with repro.connect(db, backend="tree") as session:
        rs = session.execute(repro.MLIQ(q, k=5))
        print(rs.backend, rs.stats.pages_accessed, rs.matches)
        print(session.explain(repro.TIQ(q, tau=0.3)).describe())
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.queries import Match, QueryStats, built
from repro.engine.backends import (
    Backend,
    CapabilityError,
    available_backends,
    backend_for_index,
    create_backend,
)
from repro.engine.planner import Plan, build_plan
from repro.engine.result import ResultSet
from repro.engine.semantics import score_ranked
from repro.engine.spec import Query, Spec, is_write_spec, spec_kind
from repro.obs import trace as _obs_trace

__all__ = ["Session", "connect", "session_for"]


class Session:
    """A live connection to one backend, executing the query algebra.

    Construct via :func:`connect` (or :func:`session_for` to adopt an
    already-built index). Usable as a context manager; ``close()``
    checkpoints and releases persistent backends.
    """

    def __init__(self, backend: Backend) -> None:
        self._backend = backend
        self._closed = False

    # -- introspection -------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Provenance name of the connected backend."""
        return self._backend.name

    @property
    def capabilities(self) -> frozenset[str]:
        """The connected backend's declared capability strings."""
        return self._backend.capabilities

    @property
    def writable(self) -> bool:
        """Whether the session accepts ``insert``/``delete`` (the
        backend declares the ``"writable"`` capability)."""
        return "writable" in self._backend.capabilities

    def __len__(self) -> int:
        """Number of objects in the connected database/index."""
        return self._backend.count()

    # -- query execution -----------------------------------------------------

    def execute(self, query: Spec) -> ResultSet:
        """Execute one spec; ``ResultSet.matches`` is the answer (the
        empty list for the write specs ``Insert``/``Delete``)."""
        return self.execute_many([query])

    def execute_many(self, queries: Iterable[Spec]) -> ResultSet:
        """Execute a batch (mixed kinds allowed, writes included).

        Queries of the same kind share the backend's native batch entry
        point when it declares the ``"batch"`` capability (one
        buffer-warm pass); results come back in input order with one
        merged :class:`~repro.core.queries.QueryStats`.

        Write specs (:class:`~repro.engine.spec.Insert` /
        :class:`~repro.engine.spec.Delete`; ``"writable"`` capability
        required) may interleave with queries. The batch executes as
        ordered *runs*: every query observes the writes that precede it
        in the batch and none that follow, and each maximal run of
        consecutive ``Insert`` specs is applied through the backend's
        ``insert_many`` — one group-commit WAL transaction on durable
        trees. Write specs occupy their result slot with the empty
        match list.

        Every returned match is built (its ``vector`` a pfv), whatever
        the backend answered with.
        """
        return self._execute_many(queries, build=True)

    def _execute_many(
        self, queries: Iterable[Spec], *, build: bool
    ) -> ResultSet:
        """:meth:`execute_many`; with ``build=False`` a Gauss-tree's
        answers stay row references (:class:`~repro.core.queries.RowMatch`),
        which the sharded fan-out's shard runner hands to the
        coordinator's merge so that only the matches it keeps are built.
        A reference is valid until its tree next changes, so the write
        specs of such a batch would move the rows under earlier answers;
        the shard runner sends read specs only."""
        self._check_open()
        specs = list(queries)
        for spec in specs:
            spec_kind(spec)  # fail fast on non-spec inputs
        per_query: list[list[Match] | None] = [None] * len(specs)
        total = QueryStats()

        # Composite backends (e.g. the sharded fan-out) expose a
        # per-component stats breakdown; attach it as provenance.
        take = getattr(self._backend, "take_provenance", None)
        # Tracing rides the ambient contextvar (repro.obs.tracing), not
        # a parameter, so the pinned Session signature stays unchanged
        # and untraced calls pay one ContextVar read.
        active = _obs_trace.current_trace()
        try:
            with _obs_trace.span("session.execute", count=len(specs)):
                for write_run, indices in _ordered_runs(specs):
                    if write_run:
                        with _obs_trace.span(
                            "run.write", count=len(indices)
                        ):
                            self._apply_write_run(specs, indices, per_query)
                    else:
                        with _obs_trace.span(
                            "run.query", count=len(indices)
                        ):
                            self._run_queries(
                                specs, indices, per_query, total, build
                            )
        except BaseException:
            # A run that failed after an earlier run succeeded must not
            # leak the partial breakdown into the next result.
            if take is not None:
                take()
            raise
        return ResultSet(
            specs,
            [m if m is not None else [] for m in per_query],
            total,
            self._backend.name,
            provenance=take() if take is not None else (),
            trace=active.to_dict() if active is not None else None,
        )

    def _run_queries(
        self,
        specs: list,
        indices: list[int],
        per_query: list,
        total: QueryStats,
        build: bool,
    ) -> None:
        """Execute one read run, grouping same-kind specs into shared
        backend batches (answers built when ``build``)."""
        groups: dict[str, list[int]] = {}
        for i in indices:
            groups.setdefault(spec_kind(specs[i]), []).append(i)
        for kind, group in groups.items():
            subset = [specs[i] for i in group]
            if kind == "mliq":
                answered, stats = self._backend.run_mliq(subset)
            elif kind == "tiq":
                answered, stats = self._backend.run_tiq(subset)
            elif kind in ("consensus", "erank"):
                # Ranked semantics: backends that can do better (the
                # sharded fan-out piggybacks per-shard sufficient
                # statistics) expose run_ranked; everything else lowers
                # to MLIQ and rescores the exact prefix locally.
                run_ranked = getattr(self._backend, "run_ranked", None)
                if run_ranked is not None:
                    answered, stats = run_ranked(subset)
                else:
                    answered, stats = self._backend.run_mliq(
                        [s.lower() for s in subset]
                    )
                    answered = [
                        score_ranked(spec, matches)
                        for matches, spec in zip(answered, subset)
                    ]
            else:  # rank: lower to mliq, then apply the mass cut
                answered, stats = self._backend.run_mliq(
                    [s.lower() for s in subset]
                )
                answered = [
                    _mass_cut(matches, spec.min_mass)
                    for matches, spec in zip(answered, subset)
                ]
            for i, matches in zip(group, answered):
                per_query[i] = built(matches) if build else matches
            total.merge(stats)

    def _apply_write_run(
        self, specs: list, indices: list[int], per_query: list
    ) -> None:
        """Apply one write run in order; consecutive inserts batch into
        the backend's ``insert_many`` (group commit where supported)."""
        pending_inserts: list[PFV] = []

        def flush_inserts() -> None:
            if pending_inserts:
                self._backend.insert_many(list(pending_inserts))
                pending_inserts.clear()

        for i in indices:
            spec = specs[i]
            if spec.kind == "insert":
                pending_inserts.append(spec.v)
            else:  # delete
                flush_inserts()
                self._backend.delete(spec.v)
            per_query[i] = []
        flush_inserts()

    def explain(self, query: Query | Sequence[Query]) -> Plan:
        """Describe the execution of a spec (or batch) without running it.

        Accepts the same input shapes as :meth:`execute` /
        :meth:`execute_many`: one spec, or any iterable of specs.
        Read specs only — write specs execute as direct routed
        mutations and have no query plan.
        """
        self._check_open()
        if hasattr(query, "kind"):  # a single spec (specs are not iterable)
            queries = [query]
        else:
            queries = list(query)
        if any(is_write_spec(q) for q in queries if hasattr(q, "kind")):
            raise TypeError(
                "explain() describes read queries; Insert/Delete specs "
                "execute as direct routed mutations and have no plan"
            )
        return build_plan(self._backend, queries)

    # -- data access ---------------------------------------------------------

    def database(self) -> PFVDatabase:
        """Materialise the stored objects as a database (e.g. to derive
        a ground-truthed workload from the indexed population)."""
        self._check_open()
        return self._backend.database()

    # -- mutation (capability-gated) ----------------------------------------

    def insert(self, v: PFV) -> None:
        """Insert one pfv: ``insert_many([v])``, so one WAL commit on
        WAL-backed disk sessions (``"writable"`` capability required)."""
        self.insert_many([v])

    def insert_many(self, vectors: Iterable[PFV]) -> int:
        """Insert a batch of pfv; returns how many were inserted.

        On WAL-backed disk sessions the batch is one **group-commit**
        transaction (single fsync, page images deduplicated across the
        batch, recovery all-or-nothing); on a writable sharded session
        each vector routes to its owning shard by the placement policy
        and each shard's slice group-commits. Requires the
        ``"writable"`` capability.
        """
        self._check_open()
        return self._backend.insert_many(list(vectors))

    def delete(self, v: PFV) -> bool:
        """Delete one pfv; returns whether it was found."""
        self._check_open()
        return self._backend.delete(v)

    # -- lifecycle -----------------------------------------------------------

    def cold_start(self) -> None:
        """Drop the backend's page cache (evaluation protocol hook)."""
        self._check_open()
        self._backend.cold_start()

    def flush(self) -> None:
        """Checkpoint a durable backend (no-op otherwise)."""
        self._check_open()
        self._backend.flush()

    def close(self) -> None:
        """Release the backend (checkpoints persistent writers); the
        session refuses further work afterwards. Idempotent."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"n={self._backend.count()}"
        return (
            f"Session(backend={self._backend.name!r}, {state}, "
            f"capabilities={sorted(self._backend.capabilities)})"
        )


def _ordered_runs(specs: list) -> list[tuple[bool, list[int]]]:
    """Split a batch into maximal runs of (write specs | read specs),
    preserving input order — the unit ``execute_many`` processes so that
    each query sees exactly the writes that precede it."""
    runs: list[tuple[bool, list[int]]] = []
    for i, spec in enumerate(specs):
        write = is_write_spec(spec)
        if runs and runs[-1][0] == write:
            runs[-1][1].append(i)
        else:
            runs.append((write, [i]))
    return runs


def _mass_cut(matches: list[Match], min_mass: float | None) -> list[Match]:
    """Truncate a posterior-ranked list at ``min_mass`` cumulative mass
    (keeping the match that crosses the line)."""
    if min_mass is None:
        return matches
    out: list[Match] = []
    mass = 0.0
    for m in matches:
        out.append(m)
        mass += m.probability
        if mass >= min_mass:
            break
    return out


def connect(
    source,
    backend: str = "auto",
    *,
    writable: bool = False,
    **options,
) -> Session:
    """Open a session over ``source`` through one registered backend.

    Parameters
    ----------
    source:
        A :class:`~repro.core.database.PFVDatabase`, an iterable of
        pfv, or the path of a saved Gauss-tree index file.
    backend:
        ``"auto"`` picks ``"disk"`` for a path and ``"tree"`` for
        in-memory data. Explicit names come from
        :func:`~repro.engine.backends.available_backends` —
        ``"tree"``, ``"disk"``, ``"seqscan"``, ``"xtree"`` built in.
        A non-path source with ``"disk"`` is an error; a *path* with a
        database-backed backend (``"tree"``/``"seqscan"``/``"xtree"``)
        materialises the stored objects first, so any index file can be
        served through any backend.
    writable:
        For ``"disk"``: open the index WAL-durable (format v2 or v3
        files; v1 files are read-only). The in-memory ``"tree"`` backend
        is always writable.
    options:
        Backend-specific keywords, e.g. ``page_store=``, ``layout=``,
        ``degree=``, ``mliq_tolerance=``/``tiq_tolerance=`` (tree),
        ``fsync=``/``auto_checkpoint_bytes=`` (disk, writable),
        ``coverage=`` (xtree).
    """
    if backend == "auto":
        import os

        backend = "disk" if isinstance(source, (str, os.PathLike)) else "tree"
    built = create_backend(backend, source, writable=writable, options=options)
    # Gate on declared capabilities, not on backend names, so registered
    # third-party writable backends work and read-only ones fail loudly.
    if writable and "writable" not in built.capabilities:
        close = getattr(built, "close", None)
        if close is not None:
            close()
        raise CapabilityError(
            f"backend {backend!r} does not support writable sessions "
            f"(capabilities: {sorted(built.capabilities)})"
        )
    return Session(built)


def session_for(index, name: str | None = None, **options) -> Session:
    """Adopt an already-built index object (GaussTree,
    SequentialScanIndex, XTreePFVIndex or a ready BackendAdapter) as a
    session; any other object raises ``TypeError``. ``options`` reach
    the adapter (Gauss-tree: ``mliq_tolerance``, ``tiq_tolerance``,
    ``probability_tolerance``)."""
    if isinstance(index, Session):
        if options:
            raise TypeError("an existing Session accepts no adapter options")
        return index
    return Session(backend_for_index(index, name, **options))


# Re-exported for discoverability next to connect().
connect.available_backends = available_backends  # type: ignore[attr-defined]
