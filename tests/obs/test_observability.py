"""End-to-end observability: /metrics, trace propagation, slow queries.

Real servers on ephemeral ports, as in the serving test files. The
pinned properties are the tentpole's acceptance bar: ``GET /metrics``
speaks Prometheus text over HTTP and JSONL and exposes the series
catalogue (admission, coalescing, pool, cluster fan-out, buffer, WAL);
a traced request answers with a span tree covering client → admission →
coalesce → shard; tracing N pipelined requests yields N distinct trees
without changing a single posterior bit; a killed worker increments
``repro_cluster_failover_total`` exactly once; and the slow-query log
captures spec + span tree + plan for requests over the threshold.
Every span tree a test receives must also pass
:func:`~tests.obs.span_invariants.assert_span_invariants`.
"""

import json
import re
import urllib.request

import pytest

from repro.cluster import ClusterError, SerialPool, ServeClient
from repro.core.pfv import PFV
from repro.engine import MLIQ, TIQ, connect
from repro.obs import NullRegistry
from repro.obs.metrics import CONTENT_TYPE, counter as global_counter
from repro.serve import CoalesceConfig, JsonlClient, serve_async

from tests.conftest import make_random_db, make_random_query
from tests.obs.span_invariants import assert_span_invariants


def _family_names(text: str) -> set[str]:
    """Distinct metric family names in one exposition."""
    names = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name = line.split("{")[0].split(" ")[0]
        name = re.sub(r"_(bucket|sum|count)$", "", name)
        names.add(name)
    return names


def _mliq_spec(q, k=3):
    return {"kind": "mliq", "mu": list(q.mu), "sigma": list(q.sigma), "k": k}


@pytest.fixture(scope="module")
def writable_index(tmp_path_factory):
    from repro.gausstree.bulkload import bulk_load
    from repro.storage.layout import PageLayout

    db = make_random_db(n=50, seed=70)
    path = str(tmp_path_factory.mktemp("obs") / "obs.gauss")
    tree = bulk_load(
        db.vectors, layout=PageLayout(dims=3), sigma_rule=db.sigma_rule
    )
    tree.save(path)
    return path


class TestMetricsExposition:
    def test_async_metrics_catalogue_spans_every_seam(self, writable_index):
        """One writable async server, driven with reads and writes:
        the exposition must carry the whole catalogue — admission,
        coalescing, session pool, buffer and WAL series."""
        session = connect(writable_index, writable=True)
        with serve_async(session, port=0) as server:
            host, port = server.address
            q = make_random_query(seed=71)
            with JsonlClient(host, port) as client:
                for k in range(1, 4):
                    assert client.query([MLIQ(q, k)])["status"] == 200
                assert (
                    client.insert([PFV([0.5] * 3, [0.2] * 3, key=990)])[
                        "status"
                    ]
                    == 200
                )
                text = client.metrics()
            # The HTTP shim serves the same text with the right type.
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                assert resp.read().decode("utf-8") == text
        session.close()
        names = _family_names(text)
        expected = {
            # admission
            "repro_serve_queue_depth",
            "repro_serve_queue_depth_peak",
            "repro_serve_admitted_total",
            "repro_serve_shed_total",
            # coalescing
            "repro_serve_read_batches_total",
            "repro_serve_coalesced_reads_total",
            "repro_serve_write_batches_total",
            "repro_serve_coalesced_inserts_total",
            "repro_serve_batch_size",
            "repro_serve_admission_wait_seconds",
            "repro_serve_demux_fanout",
            # session pool + request counters
            "repro_serve_pool_size",
            "repro_serve_pool_in_use",
            "repro_serve_pool_acquires_total",
            "repro_serve_queries_total",
            "repro_serve_swept_total",
            "repro_serve_inserts_total",
            "repro_serve_errors_total",
            "repro_serve_execute_seconds",
            # storage (global registry, concatenated in)
            "repro_buffer_accesses_total",
            "repro_buffer_hit_ratio",
            "repro_wal_fsync_total",
            "repro_wal_fsync_seconds",
            "repro_wal_commits_total",
            "repro_wal_group_pages",
        }
        assert expected <= names, sorted(expected - names)
        assert len(expected) >= 12  # the acceptance floor, with margin
        # HELP/TYPE discipline: every family is typed.
        assert text.count("# TYPE repro_serve_queries_total counter") == 1

    def test_counters_are_monotone_across_scrapes(self, writable_index):
        session = connect(writable_index)
        with serve_async(session, port=0) as server:
            host, port = server.address
            q = make_random_query(seed=72)
            with JsonlClient(host, port) as client:
                client.query([MLIQ(q, 2)])
                first = client.metrics()
                client.query([MLIQ(q, 2)])
                client.query([TIQ(q, 0.1)])
                second = client.metrics()

        def series(text, name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[-1])
            raise AssertionError(f"{name} not in exposition")

        for name in (
            "repro_serve_queries_total",
            "repro_serve_admitted_total",
            "repro_serve_read_batches_total",
        ):
            assert series(second, name) >= series(first, name)
        assert series(second, "repro_serve_queries_total") == series(
            first, "repro_serve_queries_total"
        ) + 2
        session.close()

    def test_sync_server_metrics_and_cluster_series(self):
        """The stdlib ServeClient reads /metrics over HTTP too; over a
        sharded session the global registry carries the fan-out
        series."""
        db = make_random_db(n=40, seed=73)
        session = connect(db, backend="sharded", shards=2)
        with serve_async(session, port=0) as server:
            client = ServeClient(server.url)
            q = make_random_query(seed=74)
            client.query([MLIQ(q, 3)])
            text = client.metrics()
        session.close()
        names = _family_names(text)
        assert {
            "repro_serve_queries_total",
            "repro_serve_pool_size",
            "repro_serve_execute_seconds",
            "repro_cluster_fanouts_total",
            "repro_cluster_fanout_seconds",
        } <= names, sorted(names)

    def test_swept_queries_count_in_stats_and_metrics(self):
        """Two-level shards answer every k-MLIQ with a sweep: /stats
        counts one per query and shard next to objects_refined, and
        /metrics exports the same count."""
        db = make_random_db(n=60, seed=76)
        session = connect(
            db, backend="sharded", shards=2, inner_options={"degree": 5}
        )
        queries = [make_random_query(seed=77 + i) for i in range(3)]
        with serve_async(session, port=0) as server:
            host, port = server.address
            with JsonlClient(host, port) as client:
                client.query([MLIQ(q, 2) for q in queries])
                stats = client.stats()
                text = client.metrics()
        session.close()
        assert stats["swept"] == len(queries) * 2
        assert stats["objects_refined"] == len(queries) * len(db)
        swept = [
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_serve_swept_total ")
        ]
        assert swept == [stats["swept"]]

    def test_null_registry_silences_the_server_series(self):
        db = make_random_db(n=30, seed=75)
        session = connect(db)
        with serve_async(
            session, port=0, registry=NullRegistry()
        ) as server:
            host, port = server.address
            with JsonlClient(host, port) as client:
                q = make_random_query(seed=76)
                assert client.query([MLIQ(q, 2)])["status"] == 200
                text = client.metrics()
                stats = client.stats()
        session.close()
        # The private registry renders nothing; only global series (a
        # shared process fixture) may remain.
        assert not any(
            n.startswith("repro_serve_") for n in _family_names(text)
        )
        # /stats counts in ServingStats, not in the silenced registry.
        assert stats["coalescing"]["read_batches"] == stats["batches"] == 1


class TestStatsFromRegistry:
    def test_stats_carries_batch_size_summary_and_per_client(self):
        db = make_random_db(n=30, seed=81)
        session = connect(db)
        with serve_async(session, port=0) as server:
            host, port = server.address
            q = make_random_query(seed=82)
            with JsonlClient(host, port) as client:
                client.query([MLIQ(q, 2)])
                stats = client.stats()
        session.close()
        coalescing = stats["coalescing"]
        assert coalescing["read_batches"] >= 1
        summary = coalescing["batch_size"]
        assert summary["count"] == coalescing["read_batches"] + coalescing[
            "write_batches"
        ]
        assert "buckets" in summary and "mean" in summary
        # Idle connections have no pending entries to report.
        assert stats["admission"]["per_client_pending"] == {}

    def test_metrics_batch_counters_equal_stats(self, writable_index):
        """/metrics reads its batch counters from ServingStats, so the
        two views agree on reads and on writes of both kinds."""
        session = connect(writable_index, writable=True)
        with serve_async(session, port=0) as server:
            host, port = server.address
            v = PFV([0.4] * 3, [0.2] * 3, key=991)
            with JsonlClient(host, port) as client:
                client.query([MLIQ(make_random_query(seed=83), 2)])
                assert client.insert([v])["status"] == 200
                assert client.delete([v])["deleted"] == 1
                text = client.metrics()
                stats = client.stats()
        session.close()
        values = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line.startswith("repro_serve_") and "{" not in line
        )
        assert int(values["repro_serve_read_batches_total"]) == (
            stats["batches"]
        ) == 1
        assert int(values["repro_serve_write_batches_total"]) == (
            stats["insert_batches"] + stats["delete_batches"]
        ) == 2
        assert stats["coalescing"]["write_batches"] == 2


class TestTracePropagation:
    def test_traced_query_spans_client_to_shard(self):
        """The headline span tree: request → admission.wait +
        serve.execute → session.execute → cluster.fanout → shard."""
        db = make_random_db(n=40, seed=91)
        session = connect(db, backend="sharded", shards=2)
        with serve_async(session, port=0) as server:
            host, port = server.address
            q = make_random_query(seed=92)
            with JsonlClient(host, port) as client:
                resp = client.query([MLIQ(q, 3)], trace="feedc0de00000001")
        session.close()
        assert resp["status"] == 200
        trace = resp["trace"]
        assert trace["id"] == "feedc0de00000001"
        (root,) = trace["spans"]
        assert root["name"] == "request"
        child_names = [c["name"] for c in root["children"]]
        assert child_names == ["admission.wait", "serve.execute"]

        def walk(node):
            yield node
            for c in node.get("children", ()):
                yield from walk(c)

        nodes = list(walk(root))
        names = [n["name"] for n in nodes]
        assert "session.execute" in names
        assert "cluster.fanout" in names
        shards = {n["shard"] for n in nodes if n["name"] == "shard"}
        assert shards == {"00", "01"}  # one span per shard touched
        # Every span fits inside the request window. Wire values are
        # rounded to 6 decimals, so start + dur of a child can overhang
        # the root by up to ~1.5 us of pure rounding error.
        for n in nodes:
            assert n["start"] >= 0.0 and n["dur"] >= 0.0
            assert n["start"] + n["dur"] <= root["dur"] + 5e-6
        assert_span_invariants(trace)

    def test_n_pipelined_traces_are_distinct_and_results_unchanged(self):
        """Property: N concurrent traced queries through a 2-shard
        backend answer N span trees with unique IDs, each touching
        both shards — and tracing changes no result bit."""
        db = make_random_db(n=60, seed=93)
        session = connect(db, backend="sharded", shards=2)
        queries = [make_random_query(seed=200 + i) for i in range(8)]
        with serve_async(
            session,
            port=0,
            coalesce=CoalesceConfig(max_batch=8, max_delay_seconds=0.02),
        ) as server:
            host, port = server.address
            with JsonlClient(host, port) as client:
                plain_rids = [
                    client.send("query", queries=[_mliq_spec(q)])
                    for q in queries
                ]
                plain = [client.recv_for(r) for r in plain_rids]
                traced_rids = [
                    client.send("query", queries=[_mliq_spec(q)], trace=True)
                    for q in queries
                ]
                traced = [client.recv_for(r) for r in traced_rids]
        session.close()
        assert all(r["status"] == 200 for r in plain + traced)
        # Bit-identical answers with tracing on.
        for p, t in zip(plain, traced):
            assert p["results"] == t["results"]
        # N trees, N unique ids, every tree touches both shards.
        ids = [t["trace"]["id"] for t in traced]
        assert len(set(ids)) == len(queries)
        for t in traced:
            assert_span_invariants(t["trace"])
            (root,) = t["trace"]["spans"]

            def shards_of(node, acc):
                if node["name"] == "shard":
                    acc.add(node.get("shard"))
                for c in node.get("children", ()):
                    shards_of(c, acc)
                return acc

            assert shards_of(root, set()) == {"00", "01"}
        # Untraced responses carry no tree at all.
        assert all("trace" not in p for p in plain)

    def test_http_header_traces_on_both_tiers(self):
        db = make_random_db(n=30, seed=94)
        session = connect(db)
        # A supplied ID rides the X-Repro-Trace header of ServeClient.
        with serve_async(session, port=0) as server:
            answer = ServeClient(server.url).query(
                [MLIQ(make_random_query(seed=95), 2)], trace="beefbeefbeefbeef"
            )
            untraced = ServeClient(server.url).query(
                [MLIQ(make_random_query(seed=95), 2)]
            )
        assert answer.trace["id"] == "beefbeefbeefbeef"
        assert answer.trace["spans"][0]["name"] == "request"
        assert answer.trace["spans"][0]["dur"] > 0.0
        assert_span_invariants(answer.trace)
        assert untraced.trace is None
        # trace=True sends a client-minted ID in the same header.
        with serve_async(session, port=0) as async_server:
            answer = ServeClient(async_server.url).query(
                [MLIQ(make_random_query(seed=96), 2)], trace=True
            )
        session.close()
        assert answer.trace is not None
        assert len(answer.trace["id"]) == 16
        assert answer.trace["spans"][0]["name"] == "request"
        assert_span_invariants(answer.trace)

    def test_traced_insert_covers_the_group_commit(self, tmp_path):
        from repro.gausstree.bulkload import bulk_load
        from repro.storage.layout import PageLayout

        db = make_random_db(n=30, seed=97)
        path = str(tmp_path / "w.gauss")
        tree = bulk_load(
            db.vectors, layout=PageLayout(dims=3), sigma_rule=db.sigma_rule
        )
        tree.save(path)
        session = connect(path, writable=True)
        with serve_async(session, port=0) as server:
            host, port = server.address
            with JsonlClient(host, port) as client:
                resp = client.insert(
                    [PFV([0.4] * 3, [0.2] * 3, key=991)], trace=True
                )
        session.close()
        assert resp["status"] == 200

        def names(node):
            yield node["name"]
            for c in node.get("children", ()):
                yield from names(c)

        assert_span_invariants(resp["trace"])
        (root,) = resp["trace"]["spans"]
        all_names = {n for n in names(root)}
        assert "serve.insert" in all_names
        assert "wal.commit" in all_names  # durability visible in the tree


class TestFailoverAccounting:
    def test_killed_worker_counts_exactly_one_failover(self):
        """Regression: a worker death that fails over to a replica
        increments ``repro_cluster_failover_total`` exactly once, and
        the error path (no replica) carries shard + attempts."""
        calls = {"n": 0}

        def opener(key):
            return key

        def runner(session, payload):
            calls["n"] += 1
            if session == 0:  # primary dies on first touch
                raise RuntimeError("worker killed")
            return "ok"

        failover_counter = global_counter("repro_cluster_failover_total")
        retry_counter = global_counter("repro_cluster_retry_total")
        failovers_before = failover_counter.value
        retries_before = retry_counter.value
        pool = SerialPool(
            opener,
            runner,
            attempts=2,
            backoff=0.0,
            failover=lambda key, attempt: 1,
        )
        assert pool.run([(0, "payload")]) == ["ok"]
        assert failover_counter.value - failovers_before == 1
        assert retry_counter.value - retries_before == 1
        pool.close()

    def test_cluster_error_carries_shard_and_attempts(self):
        def runner(session, payload):
            raise RuntimeError("dead")

        pool = SerialPool(lambda k: k, runner, attempts=3, backoff=0.0)
        with pytest.raises(ClusterError) as info:
            pool.run([(7, "payload")])
        assert info.value.shard == "7"
        assert info.value.attempts == 3
        pool.close()


class TestSlowQueryLog:
    def test_slow_requests_logged_with_trace_and_plan(self, tmp_path):
        db = make_random_db(n=40, seed=101)
        session = connect(db)
        log_path = tmp_path / "slow.jsonl"
        with serve_async(
            session,
            port=0,
            slow_query_log=str(log_path),
            slow_query_ms=0.0,  # everything is slow: deterministic
        ) as server:
            host, port = server.address
            q = make_random_query(seed=102)
            with JsonlClient(host, port) as client:
                assert (
                    client.query([MLIQ(q, 3)], trace=True)["status"] == 200
                )
        session.close()
        lines = log_path.read_text().splitlines()
        assert lines
        entry = json.loads(lines[0])
        assert entry["source"] == "serve-async"
        assert entry["queries"][0]["kind"] == "mliq"
        assert entry["trace"]["spans"][0]["name"] == "request"
        assert_span_invariants(entry["trace"])
        assert "mliq" in entry["plan"]  # the explain() text rode along
        assert entry["stats"]["pages_accessed"] >= 0
        assert "buffer_hit_ratio" in entry["stats"]

    def test_sync_tier_logs_too(self, tmp_path):
        db = make_random_db(n=40, seed=103)
        session = connect(db)
        log_path = tmp_path / "slow-sync.jsonl"
        with serve_async(
            session,
            port=0,
            slow_query_log=str(log_path),
            slow_query_ms=0.0,
        ) as server:
            ServeClient(server.url).query(
                [TIQ(make_random_query(seed=104), 0.2)]
            )
        session.close()
        entry = json.loads(log_path.read_text().splitlines()[0])
        assert entry["source"] == "serve-async"
        assert entry["queries"][0]["kind"] == "tiq"
        assert entry["plan"]
