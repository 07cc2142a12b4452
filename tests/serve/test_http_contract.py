"""The HTTP contract of ``repro serve`` and its stdlib client.

A real AsyncQueryServer on an ephemeral port per test module, spoken to
over HTTP/1.1 only: the wire answers must match a direct
``Session.execute_many`` bit for bit, malformed requests must come back
as structured JSON errors (never a hung or dropped connection), and
concurrent clients must all be answered.
"""

import json
import threading
import urllib.request

import pytest

from repro.cluster import RemoteError, ServeClient
from repro.engine import MLIQ, TIQ, RankQuery, connect
from repro.serve import AsyncQueryServer, CoalesceConfig, serve_async

from tests.conftest import make_random_db, make_random_query


@pytest.fixture(scope="module")
def served():
    db = make_random_db(n=40, seed=50)
    session = connect(db, backend="sharded", shards=2)
    with serve_async(session, port=0) as server:
        yield server, session, db
    session.close()


@pytest.fixture
def client(served):
    server, _, _ = served
    return ServeClient(server.url, timeout=30)


def test_healthz_reports_backend_and_size(served, client):
    _, session, db = served
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["backend"] == session.backend_name
    assert payload["objects"] == len(db)


def test_query_answers_match_direct_session(served, client):
    _, session, _ = served
    q = make_random_query(seed=51)
    specs = [MLIQ(q, 5), TIQ(q, 0.2), RankQuery(q, 9, min_mass=0.9)]
    answer = client.query(specs)
    direct = session.execute_many(specs)
    assert answer.backend == session.backend_name
    assert answer.keys() == [
        [m.key for m in matches] for matches in direct
    ]
    for remote_matches, local_matches in zip(answer.results, direct):
        for r, m in zip(remote_matches, local_matches):
            assert r["probability"] == pytest.approx(
                m.probability, abs=1e-12
            )
            assert r["log_density"] == pytest.approx(
                m.log_density, rel=1e-12
            )
    # Sharded sessions expose the per-shard breakdown over the wire.
    assert len(answer.provenance) > 0
    assert answer.stats["pages_accessed"] >= 0


def test_single_bare_spec_body_is_accepted(served):
    server, _, _ = served
    q = make_random_query(seed=52)
    body = json.dumps(
        {
            "kind": "mliq",
            "mu": [float(x) for x in q.mu],
            "sigma": [float(x) for x in q.sigma],
            "k": 3,
        }
    ).encode()
    request = urllib.request.Request(
        server.url + "/query",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        payload = json.loads(response.read())
    assert payload["n_queries"] == 1
    assert len(payload["results"][0]) == 3


def test_stats_accumulate(served, client):
    before = client.stats()
    client.query(MLIQ(make_random_query(seed=53), 2))
    after = client.stats()
    assert after["queries"] >= before["queries"] + 1
    assert after["batches"] >= before["batches"] + 1
    assert after["queries_by_kind"].get("mliq", 0) >= 1


@pytest.mark.parametrize(
    "path,body,status,fragment",
    [
        ("/nope", None, 404, "unknown path"),
        ("/query", b"{malformed", 400, "not JSON"),
        ("/query", b'{"queries": []}', 400, "no queries"),
        ("/query", b'{"queries": {"kind": "mliq"}}', 400, "must be a list"),
        (
            "/query",
            b'{"queries": [{"kind": "knn", "mu": [0.1], "sigma": [0.1]}]}',
            400,
            "unknown query kind",
        ),
        (
            "/query",
            b'{"queries": [{"kind": "mliq", "mu": [0.1]}]}',
            400,
            "missing field",
        ),
        # Valid JSON that is not an object.
        ("/query", b"[1, 2]", 400, "JSON object"),
        ("/query", b'"x"', 400, "JSON object"),
        ("/query", b"3", 400, "JSON object"),
        ("/query", b"null", 400, "JSON object"),
        ("/insert", b"[1]", 400, "JSON object"),
    ],
)
def test_bad_requests_answer_structured_errors(
    served, path, body, status, fragment
):
    server, _, _ = served
    request = urllib.request.Request(
        server.url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == status
    detail = json.loads(excinfo.value.read())
    assert fragment in detail["error"]


def test_execution_error_is_500_not_a_dead_connection(served, client):
    # Dimension mismatch only surfaces inside execution.
    bad = MLIQ(make_random_query(d=7, seed=54), 2)
    with pytest.raises(RemoteError) as excinfo:
        client.query(bad)
    assert excinfo.value.status == 500
    # The server survived the failed batch: it still answers.
    assert client.healthz()["status"] == "ok"


def test_oversized_body_rejection_does_not_corrupt_the_connection(served):
    """Early rejects (body never read) must drop the keep-alive
    connection — otherwise the unread body bytes would be parsed as the
    next request line on that connection."""
    import socket

    server, _, _ = served
    host, port = server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        declared = 128 * 1024 * 1024  # over MAX_BODY_BYTES
        sock.sendall(
            (
                "POST /query HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {declared}\r\n"
                "Content-Type: application/json\r\n"
                "\r\n"
            ).encode()
            + b'{"queries": []}'  # a fragment of the never-sent body
        )
        sock.settimeout(30)
        response = sock.recv(65536)
        assert b"413" in response.split(b"\r\n", 1)[0]
        # The server closes the connection instead of serving the
        # leftover bytes as a bogus second request.
        trailing = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            trailing += chunk
        assert b"unsupported method" not in trailing.lower()
        assert b"501" not in trailing


def test_client_surfaces_unreachable_server():
    dead = ServeClient("http://127.0.0.1:1", timeout=2)
    with pytest.raises(RemoteError, match="cannot reach"):
        dead.healthz()


def test_concurrent_clients_are_all_answered(served, client):
    _, session, _ = served
    q = make_random_query(seed=55)
    expected = [m.key for m in session.execute(MLIQ(q, 4)).matches]
    results: list = [None] * 8
    errors: list = []

    def hit(i):
        try:
            results[i] = client.query(MLIQ(q, 4)).keys()[0]
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=hit, args=(i,)) for i in range(len(results))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert all(r == expected for r in results)


def test_double_start_and_address_before_start_raise():
    db = make_random_db(n=5, seed=56)
    with connect(db, backend="tree") as session:
        server = AsyncQueryServer(session, port=0)
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        server.serve_in_background()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.serve_in_background()
        finally:
            server.shutdown()


# ---------------------------------------------------------------------------
# Session pool + the write endpoint
# ---------------------------------------------------------------------------


def test_stats_expose_session_pool_utilisation(served, client):
    payload = client.stats()
    pool = payload["session_pool"]
    assert pool["size"] == 1
    assert pool["in_use"] >= 0
    assert pool["peak_in_use"] >= 1
    assert pool["acquires"] >= 1
    assert pool["waits"] >= 0
    assert len(pool["batches_per_session"]) == pool["size"]
    assert sum(pool["batches_per_session"]) >= pool["acquires"] - pool["size"]


def test_pooled_sessions_serve_concurrent_queries(served):
    """pool_size=3: concurrent clients spread over the replicas (no
    single execution lock) and all answer identically."""
    _, session, db = served
    factory = lambda: connect(db, backend="sharded", shards=2)  # noqa: E731
    q = make_random_query(seed=57)
    primary = connect(db, backend="sharded", shards=2)
    with serve_async(
        primary,
        port=0,
        session_factory=factory,
        pool_size=3,
        coalesce=CoalesceConfig(max_batch=1),
    ) as server:
        client = ServeClient(server.url, timeout=30)
        expected = client.query(MLIQ(q, 4)).keys()[0]
        results: list = [None] * 9
        errors: list = []

        def hit(i):
            try:
                results[i] = client.query(MLIQ(q, 4)).keys()[0]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(i,))
            for i in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(r == expected for r in results)
        pool = client.stats()["session_pool"]
        assert pool["size"] == 3
        assert sum(pool["batches_per_session"]) >= 10
    primary.close()


def test_pool_size_above_one_requires_a_factory():
    db = make_random_db(n=5, seed=58)
    with connect(db, backend="tree") as session:
        with pytest.raises(ValueError, match="session_factory"):
            AsyncQueryServer(session, port=0, pool_size=2)
        with pytest.raises(ValueError, match="pool_size"):
            AsyncQueryServer(session, port=0, pool_size=0)


def test_insert_endpoint_round_trip_and_stats():
    from repro.core.pfv import PFV

    db = make_random_db(n=20, seed=59)
    session = connect(db, backend="sharded", shards=2, inner="tree",
                      writable=True)
    with serve_async(session, port=0) as server:
        client = ServeClient(server.url, timeout=30)
        fresh = [
            PFV([0.4, 0.4, 0.4 + 0.01 * i], [0.1, 0.1, 0.1], key=("srv", i))
            for i in range(6)
        ]
        reply = client.insert(fresh)
        assert reply["inserted"] == 6
        assert reply["objects"] == 26
        # The writes are queryable through the same primary session
        # (tuple keys serialize as JSON lists on the wire).
        answer = client.query(MLIQ(fresh[0], 26))
        assert ["srv", 0] in answer.keys()[0]
        stats = client.stats()
        assert stats["inserts"] == 6
        assert stats["insert_batches"] == 1
        # One pfv (not a list) also works.
        single = client.insert(PFV([0.5, 0.5, 0.5], [0.1, 0.1, 0.1],
                                   key="solo"))
        assert single["objects"] == 27
    session.close()


def test_insert_rejected_on_read_only_server(served, client):
    from repro.core.pfv import PFV

    with pytest.raises(RemoteError) as excinfo:
        client.insert(PFV([0.1, 0.1, 0.1], [0.1, 0.1, 0.1], key="ro"))
    assert excinfo.value.status == 403
    assert "read-only" in str(excinfo.value)


def test_query_endpoint_refuses_write_specs(served):
    server, _, _ = served
    body = json.dumps(
        {
            "queries": [
                {"kind": "insert", "mu": [0.1, 0.1, 0.1],
                 "sigma": [0.1, 0.1, 0.1], "key": "w"}
            ]
        }
    ).encode()
    request = urllib.request.Request(
        server.url + "/query",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "/insert" in json.loads(excinfo.value.read())["error"]


def test_insert_endpoint_validates_bodies():
    db = make_random_db(n=5, seed=70)
    session = connect(db, backend="tree")
    with serve_async(session, port=0) as server:
        for body, fragment in (
            (b'{"nope": []}', "vectors"),
            (b'{"vectors": {}}', "must be a list"),
            (b'{"vectors": []}', "no vectors"),
            (b'{"vectors": [{"mu": [0.1]}]}', "missing field"),
        ):
            request = urllib.request.Request(
                server.url + "/insert",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert fragment in json.loads(excinfo.value.read())["error"]
    session.close()


def test_write_spec_wire_round_trip():
    """Insert/Delete specs (and tuple keys) survive the JSON wire."""
    from repro.cluster import spec_from_json, spec_to_json
    from repro.core.pfv import PFV
    from repro.engine import Delete, Insert

    for spec in (
        Insert(PFV([0.1, 0.2], [0.1, 0.1], key=("a", 1))),
        Insert(PFV([0.1, 0.2], [0.1, 0.1])),  # anonymous
        Delete(PFV([0.3, 0.4], [0.2, 0.2], key="plain")),
    ):
        wire = spec_to_json(spec)
        back = spec_from_json(json.loads(json.dumps(wire)))
        assert type(back) is type(spec)
        assert back.v.key == spec.v.key
        assert list(back.v.mu) == list(spec.v.mu)
        assert list(back.v.sigma) == list(spec.v.sigma)


def test_insert_is_read_your_writes_through_replica_sessions(tmp_path):
    """Replica-backed pools are read-your-writes (regression): an
    accepted ``/insert`` flushes the primary, WAL-ships the shards'
    replicas and marks every pooled replica session stale, so a query
    served by *any* pool slot — refreshed on acquire — sees the write.
    Before the fix, replica slots served pre-insert snapshots."""
    from repro.cluster.partition import build_shards
    from repro.core.pfv import PFV

    db = make_random_db(n=20, seed=73)
    manifest = build_shards(db, 2, str(tmp_path / "ryw"), replicas=1)
    primary = connect(manifest.source_path, backend="sharded", writable=True)
    factory = lambda: connect(manifest.source_path, backend="sharded")  # noqa: E731
    with serve_async(
        primary, port=0, session_factory=factory, pool_size=3
    ) as server:
        client = ServeClient(server.url, timeout=30)
        fresh = [
            PFV([0.45, 0.45, 0.45 + 0.01 * i], [0.1] * 3, key=("ryw", i))
            for i in range(4)
        ]
        assert client.insert(fresh)["objects"] == 24
        expected = {("ryw", i) for i in range(4)}
        results: list = [None] * 9
        errors: list = []

        def hit(i):
            try:
                answer = client.query(MLIQ(fresh[0], 24))
                results[i] = {
                    tuple(k) if isinstance(k, list) else k
                    for k in answer.keys()[0]
                }
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        # Concurrent queries spread over all three pool slots; every
        # slot (primary and both replica sessions) must see the insert.
        threads = [
            threading.Thread(target=hit, args=(i,))
            for i in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        for seen in results:
            assert expected <= seen
    primary.close()


def test_shut_down_server_refuses_to_restart():
    """A server serves once: after shutdown() (which closes its replica
    sessions), serve_in_background() raises instead of returning the
    stale address of a socket nothing listens on (regression)."""
    db = make_random_db(n=10, seed=71)
    primary = connect(db, backend="tree")
    server = AsyncQueryServer(
        primary,
        port=0,
        session_factory=lambda: connect(db, backend="tree"),
        pool_size=2,
    )
    try:
        server.serve_in_background()
        client = ServeClient(server.url, timeout=30)
        answer = client.query(MLIQ(make_random_query(seed=72), 2))
        assert len(answer.results[0]) == 2
        server.shutdown()
        with pytest.raises(RuntimeError, match="cannot restart"):
            server.serve_in_background()
        with pytest.raises(RuntimeError, match="cannot restart"):
            with server:
                pass
    finally:
        server.shutdown()
        primary.close()
