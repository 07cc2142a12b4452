"""Public-API snapshot of the unified engine surface.

``repro.engine`` is the seam everything else (CLI, evaluation runner,
benchmarks, future sharding/async serving) is built on, so its exported
names and call signatures are pinned here verbatim. A failure in this
file means the public surface changed: if that is intentional, update
the snapshot *and* the README "Query API" section (migration table,
deprecation policy) in the same commit.
"""

import inspect

import pytest

import repro
import repro.cluster as cluster
import repro.engine as engine


def sig(obj) -> str:
    return str(inspect.signature(obj))


EXPECTED_ENGINE_EXPORTS = {
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
}

# Signatures of the callable surface, pinned exactly (the quoted
# annotations come from `from __future__ import annotations`).
EXPECTED_SIGNATURES = {
    "connect": "(source, backend: 'str' = 'auto', *, "
    "writable: 'bool' = False, **options) -> 'Session'",
    "session_for": "(index, name: 'str | None' = None, **options) "
    "-> 'Session'",
    "register_backend": "(name: 'str', factory: 'Callable[..., Backend]', "
    "description: 'str' = '', *, replace: 'bool' = False) -> 'None'",
    "available_backends": "() -> 'dict[str, str]'",
    "MLIQ": "(q: 'PFV', k: 'int' = 1) -> None",
    "TIQ": "(q: 'PFV', tau: 'float' = 0.5, eps: 'float' = 0.0) -> None",
    "RankQuery": "(q: 'PFV', k: 'int' = 1, "
    "min_mass: 'float | None' = None) -> None",
    "ConsensusTopK": "(q: 'PFV', k: 'int' = 1) -> None",
    "ExpectedRank": "(q: 'PFV', k: 'int' = 1) -> None",
    "Insert": "(v: 'PFV') -> None",
    "Delete": "(v: 'PFV') -> None",
}

EXPECTED_SESSION_METHODS = {
    "execute": "(self, query: 'Spec') -> 'ResultSet'",
    "execute_many": "(self, queries: 'Iterable[Spec]') -> 'ResultSet'",
    "explain": "(self, query: 'Query | Sequence[Query]') -> 'Plan'",
    "insert": "(self, v: 'PFV') -> 'None'",
    "insert_many": "(self, vectors: 'Iterable[PFV]') -> 'int'",
    "delete": "(self, v: 'PFV') -> 'bool'",
    "database": "(self) -> 'PFVDatabase'",
    "cold_start": "(self) -> 'None'",
    "flush": "(self) -> 'None'",
    "close": "(self) -> 'None'",
}


def test_engine_export_names_are_pinned():
    assert set(engine.__all__) == EXPECTED_ENGINE_EXPORTS
    for name in engine.__all__:
        assert hasattr(engine, name), f"__all__ names missing export {name}"


def test_engine_callable_signatures_are_pinned():
    for name, expected in EXPECTED_SIGNATURES.items():
        assert sig(getattr(engine, name)) == expected, (
            f"signature drift in repro.engine.{name}: "
            f"{sig(getattr(engine, name))!r}"
        )


def test_session_method_signatures_are_pinned():
    for name, expected in EXPECTED_SESSION_METHODS.items():
        method = getattr(engine.Session, name)
        assert sig(method) == expected, (
            f"signature drift in Session.{name}: {sig(method)!r}"
        )


def test_backend_protocol_members():
    # The capability-declaring protocol every backend implements.
    members = {
        name
        for name in ("run_mliq", "run_tiq", "run_ranked", "count", "estimate")
        if callable(getattr(engine.BackendAdapter, name, None))
    }
    assert members == {
        "run_mliq",
        "run_tiq",
        "run_ranked",
        "count",
        "estimate",
    }


def test_top_level_reexports():
    for name in (
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
    ):
        assert getattr(repro, name) is getattr(engine, name)
        assert name in repro.__all__


def test_removed_1x_query_surface_is_absent():
    # 2.1.0 deleted the per-method query shims and the duck-typed
    # adapter; sessions are the only query surface.
    from repro.baselines import SequentialScanIndex, XTreePFVIndex
    from repro.engine import backends
    from repro.eval import runner

    removed = {
        repro.GaussTree: ("mliq", "tiq", "mliq_many", "tiq_many"),
        SequentialScanIndex: ("mliq", "tiq", "mliq_many", "tiq_many"),
        XTreePFVIndex: ("mliq", "tiq"),
    }
    for cls, methods in removed.items():
        for method in methods:
            assert not hasattr(cls, method), f"{cls.__name__}.{method}"
    assert not hasattr(backends, "LegacyMethodBackend")
    assert not hasattr(runner, "AccessMethod")


def test_builtin_backends_registered():
    assert set(engine.available_backends()) >= {
        "tree",
        "disk",
        "seqscan",
        "xtree",
        "sharded",
    }


# ---------------------------------------------------------------------------
# repro.cluster: the sharded serving surface
# ---------------------------------------------------------------------------

EXPECTED_CLUSTER_EXPORTS = {
    "ClusterError",
    "ShardedBackend",
    "PARTITION_POLICIES",
    "ShardInfo",
    "ShardManifest",
    "build_shards",
    "load_manifest",
    "partition_database",
    "shard_of",
    "stable_shard_hash",
    "SerialPool",
    "reshard",
    "reshard_gc",
    "ServeClient",
    "RemoteAnswer",
    "RemoteError",
    "WireError",
    "spec_to_json",
    "spec_from_json",
    "pfv_to_json",
    "pfv_from_json",
    "load_jsonl",
    "dump_jsonl",
}

EXPECTED_CLUSTER_SIGNATURES = {
    "build_shards": "(db: 'PFVDatabase', n_shards: 'int', out_prefix, *, "
    "policy: 'str' = 'hash', page_size: 'int' = 8192, "
    "replicas: 'int' = 0) -> 'ShardManifest'",
    "load_manifest": "(path) -> 'ShardManifest'",
    "reshard": "(manifest_path, new_n_shards: 'int', *, "
    "policy: 'str | None' = None, page_size: 'int' = 8192, "
    "replicas: 'int | None' = None) -> 'ShardManifest'",
    "reshard_gc": "(manifest_path, *, dry_run: 'bool' = False) -> 'dict'",
    "partition_database": "(db: 'PFVDatabase', n_shards: 'int', "
    "policy: 'str' = 'hash') -> 'list[PFVDatabase]'",
    "shard_of": "(v: 'PFV', position: 'int', n_shards: 'int', "
    "policy: 'str') -> 'int'",
}


def test_cluster_export_names_are_pinned():
    assert set(cluster.__all__) == EXPECTED_CLUSTER_EXPORTS
    for name in cluster.__all__:
        assert hasattr(cluster, name), f"__all__ names missing export {name}"


def test_cluster_callable_signatures_are_pinned():
    for name, expected in EXPECTED_CLUSTER_SIGNATURES.items():
        assert sig(getattr(cluster, name)) == expected, (
            f"signature drift in repro.cluster.{name}: "
            f"{sig(getattr(cluster, name))!r}"
        )


def test_importing_repro_registers_the_sharded_backend():
    # `import repro` alone must be enough for connect(backend="sharded").
    assert "sharded" in engine.available_backends()
    assert cluster.ShardedBackend is not None


def test_resultset_provenance_is_part_of_the_surface():
    # Composite backends attach per-shard (name, stats) pairs; the
    # attribute exists (empty) on every ResultSet.
    assert "provenance" in engine.ResultSet.__slots__


# ---------------------------------------------------------------------------
# Plan / cost-model pricing surface (format-v3 vectorized refinement)
# ---------------------------------------------------------------------------


def test_plan_estimate_carries_cpu_seconds():
    assert engine.PlanEstimate.__slots__ == (
        "pages",
        "io_seconds",
        "note",
        "cpu_seconds",
    )
    assert sig(engine.PlanEstimate.__init__) == (
        "(self, pages: 'int', io_seconds: 'float', note: 'str', "
        "cpu_seconds: 'float' = 0.0) -> 'None'"
    )


def test_plan_exposes_estimated_cpu_seconds():
    import dataclasses

    fields = {f.name for f in dataclasses.fields(engine.Plan)}
    assert "estimated_cpu_seconds" in fields
    # describe() renders the CPU estimate for the CLI's --explain.
    plan = engine.Plan(
        backend="tree",
        query_kind="mliq",
        n_queries=1,
        strategy="batched",
        lowering=(),
        estimated_pages=4,
        estimated_io_seconds=0.01,
        estimated_cpu_seconds=0.002,
        notes=(),
    )
    assert "modeled CPU" in plan.describe()


def test_cost_model_prices_vectorized_refinement():
    from repro.storage.costmodel import DiskCostModel

    assert sig(DiskCostModel.modeled_cpu_seconds) == (
        "(self, objects_refined: 'int', pages_accessed: 'int', *, "
        "vectorized: 'bool' = False) -> 'float'"
    )
    model = DiskCostModel()
    scalar = model.modeled_cpu_seconds(1000, 0)
    vectorized = model.modeled_cpu_seconds(1000, 0, vectorized=True)
    assert vectorized < scalar
    assert vectorized == 1000 * model.cpu_per_vectorized_refinement_seconds


def test_cost_model_prices_counters():
    from repro.storage.costmodel import DiskCostModel

    assert sig(DiskCostModel.price) == (
        "(self, stats: 'QueryStats', *, vectorized: 'bool') "
        "-> 'tuple[float, float]'"
    )


# ---------------------------------------------------------------------------
# repro.serve: the async serving tier
# ---------------------------------------------------------------------------

EXPECTED_SERVE_EXPORTS = {
    "AdmissionConfig",
    "AdmissionError",
    "AdmissionQueue",
    "AsyncQueryServer",
    "CoalesceConfig",
    "JsonlClient",
    "serve_async",
}


def test_serve_export_names_are_pinned():
    import repro.serve as serve

    assert set(serve.__all__) == EXPECTED_SERVE_EXPORTS
    for name in serve.__all__:
        assert hasattr(serve, name), f"__all__ names missing export {name}"


def test_serve_async_signature_is_pinned():
    # The one serving entry point (2.0 removed the threaded
    # repro.cluster.serve); `repro serve` builds the same server.
    import repro.serve as serve

    assert sig(serve.serve_async) == (
        "(session: 'Session', host: 'str' = '127.0.0.1', "
        "port: 'int' = 8631, *, "
        "session_factory: 'Callable[[], Session] | None' = None, "
        "pool_size: 'int' = 1, "
        "admission: 'AdmissionConfig | None' = None, "
        "coalesce: 'CoalesceConfig | None' = None, "
        "drain_timeout: 'float' = 10.0, "
        "registry: 'MetricsRegistry | None' = None, "
        "slow_query_log: 'SlowQueryLog | str | None' = None, "
        "slow_query_ms: 'float' = 250.0) -> 'AsyncQueryServer'"
    )


def test_removed_2_2_write_and_coalescing_surface_is_absent():
    # 2.2.0: a backend's one insert entry point is insert_many, and
    # max_batch=1 is the one way to turn coalescing off.
    from repro.cli import build_parser
    from repro.cluster.backend import ShardedBackend
    from repro.engine.backends import GaussTreeBackend, _EmptyTreeBackend

    for cls in (
        engine.BackendAdapter, GaussTreeBackend, _EmptyTreeBackend,
        ShardedBackend,
    ):
        assert "insert" not in vars(cls), cls
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "x.gauss", "--no-coalesce"])


def test_removed_2_3_leaf_layout_flags_are_absent():
    # 2.3.0: every Gauss-tree leaf is columnar, so neither the tree nor
    # its leaves carry a layout flag any more.
    from repro.gausstree.node import LeafNode
    from repro.gausstree.tree import GaussTree

    assert not hasattr(GaussTree(dims=2), "vectorized_leaves")
    assert not hasattr(LeafNode, "is_columnar")


def test_removed_2_4_storage_surface_is_absent():
    # 2.4.0: committed page images live only in the file store, the
    # buffer has no dirty tracking, write-back or pins, and every new
    # file generation goes through one publisher.
    from repro.obs import metrics
    from repro.storage.buffer import BufferManager, BufferStats
    from repro.storage.filestore import FilePageStore

    for method in (
        "write", "mark_dirty", "mark_clean", "is_dirty", "dirty_pages",
        "set_writeback", "pin", "unpin", "pin_count",
    ):
        assert not hasattr(BufferManager, method), method
    assert "writebacks" not in BufferStats.__slots__
    assert "writebacks" not in BufferManager(1).stats.snapshot()
    for method in ("_write_back", "write_page_to_file", "write_raw", "sync"):
        assert not hasattr(FilePageStore, method), method
    registry = metrics.MetricsRegistry()
    metrics.register_buffer_collectors(registry)
    assert "repro_buffer_writebacks_total" not in registry.render()


def test_serve_config_defaults_are_pinned():
    # The CLI flags (`repro serve`) document these defaults;
    # changing them must be a deliberate, test-visible act.
    import dataclasses

    from repro.serve import AdmissionConfig, CoalesceConfig

    admission = AdmissionConfig()
    assert admission.max_queue == 512
    assert admission.max_queue_per_client == 64
    assert admission.retry_after_seconds == 0.05
    coalesce = CoalesceConfig()
    assert coalesce.max_batch == 16
    assert coalesce.max_delay_seconds == 0.002
    # max_batch=1 is the one way to turn fusing off.
    assert {f.name for f in dataclasses.fields(CoalesceConfig)} == {
        "max_batch",
        "max_delay_seconds",
    }


def test_removed_2_6_modeled_seconds_are_absent():
    # 2.6.0: queries count their work and the cost model prices the
    # counters at the edge, so no record on the query path holds modeled
    # seconds, storage takes no cost model, and the modeled coalescing
    # of explain() is gone.
    import dataclasses

    from repro.core.queries import QueryStats
    from repro.engine.planner import build_plan
    from repro.gausstree.persist import open_tree
    from repro.gausstree.tree import GaussTree
    from repro.storage.costmodel import DiskCostModel
    from repro.storage.filestore import FilePageStore
    from repro.storage.pagestore import AccessLog, PageStore

    for name in (
        "io_seconds", "modeled_cpu_seconds", "total_seconds",
        "modeled_total_seconds",
    ):
        assert not hasattr(QueryStats(), name), name
    assert "io_seconds" not in AccessLog.__slots__
    for fn in (PageStore, FilePageStore, GaussTree.open, open_tree):
        assert "cost_model" not in inspect.signature(fn).parameters, fn
    with pytest.raises(TypeError, match="cost_model"):
        engine.connect(
            [repro.PFV([0.5], [0.1], key=0)], cost_model=DiskCostModel()
        )
    assert "coalesce" not in inspect.signature(build_plan).parameters
    fields = {f.name for f in dataclasses.fields(engine.Plan)}
    assert not {
        "estimated_queue_seconds", "coalesce_batch", "coalesce_amortization",
    } & fields
    for name in (
        "coalesce_amortization", "coalesced_batch_seconds",
        "expected_coalesce_wait_seconds", "coalesce_dispatch_seconds",
        "batch_shared_fraction",
    ):
        assert not hasattr(DiskCostModel(), name), name
