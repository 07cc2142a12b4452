#!/usr/bin/env python
"""Online re-identification benchmark: identify latency and track churn.

Replays the paper's motivating workload — a stream of uncertain
observations, each *identified* against the live track database with
``ConsensusTopK`` and then *inserted* as a new track version, with
sliding-window deletes expiring stale versions — against two tiers:

* **sync** — one writable sharded session in-process (2 disk shards,
  round-robin placement): the floor for serving overhead;
* **serve** — the same loop through one pipelined
  :class:`repro.serve.JsonlClient` against a live writable async server
  (``repro serve --writable``): in-process ``serve_async`` by
  default, or ``--server HOST:PORT`` to drive an external one (the CI
  job starts the CLI server and points this flag at it).

Both report identify-latency percentiles, sustained track-churn
throughput (identify+insert+expire cycles per second) and the
re-identification precision against the stream generator's ground
truth.

* **Failover determinism** — a read-only replicated deployment
  answers a 48-query identification batch after one shard's replica
  file is lost; the shard's task fails over to its primary, and the
  answers must be *bit-identical* (keys, posteriors, consensus scores)
  to the fault-free run, at one or more observed failovers. This gate
  is asserted even under ``--smoke``: it is a correctness claim, not a
  throughput ratio.

Throughput gates (full runs only): every observation must complete its
identify+insert cycle, every expiry must delete exactly its track, and
both tiers must sustain > 0 cycles/s. Writes ``BENCH_reid.json``.

Run:  PYTHONPATH=src python benchmarks/bench_reid.py
      (--smoke shrinks the stream for CI; --server drives an external
      async server instead of an in-process one)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.cluster.partition import build_shards  # noqa: E402
from repro.core.database import PFVDatabase  # noqa: E402
from repro.core.pfv import PFV  # noqa: E402
from repro.engine import ConsensusTopK, connect  # noqa: E402
from repro.obs.metrics import counter  # noqa: E402
from repro.serve import JsonlClient, serve_async  # noqa: E402


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def make_stream(
    n_identities: int, steps: int, d: int, seed: int
) -> list[tuple[int, PFV]]:
    """A seeded stream of noisy, uncertain observations of
    ``n_identities`` ground-truth identities (each observation carries
    its own per-dimension sigma)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (n_identities, d))
    stream = []
    for _ in range(steps):
        ident = int(rng.integers(n_identities))
        sigma = rng.uniform(0.03, 0.12, d)
        mu = centers[ident] + rng.normal(0.0, sigma)
        stream.append((ident, PFV(mu, sigma)))
    return stream


def churn(
    stream: list[tuple[int, PFV]],
    *,
    window_size: int,
    k: int,
    key_tag: str,
    identify,
    insert,
    expire,
) -> dict:
    """Drive one identify-then-insert / sliding-window-expire loop.

    ``identify(obs, k)`` returns the top answer's key (or None),
    ``insert(track)`` / ``expire(track)`` apply the write. Returns
    identify-latency percentiles, sustained churn throughput and the
    re-identification precision against the stream's ground truth.
    """
    track_identity: dict[object, int] = {}
    window: list[PFV] = []
    latencies: list[float] = []
    hits = misses = 0
    started = time.perf_counter()
    for serial, (true_ident, obs) in enumerate(stream):
        t = time.perf_counter()
        top_key = identify(obs, k)
        latencies.append(time.perf_counter() - t)
        if top_key is not None:
            if track_identity.get(tuple(top_key)) == true_ident:
                hits += 1
            else:
                misses += 1
        track = PFV(obs.mu, obs.sigma, key=(key_tag, serial))
        track_identity[(key_tag, serial)] = true_ident
        insert(track)
        window.append(track)
        if len(window) > window_size:
            expire(window.pop(0))
    elapsed = time.perf_counter() - started
    return {
        "observations": len(stream),
        "window": window_size,
        "identify_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "identify_p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "identify_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "churn_per_second": round(len(stream) / elapsed, 1),
        "elapsed_seconds": round(elapsed, 3),
        "reid_hits": hits,
        "reid_misses": misses,
        "reid_precision": round(hits / max(1, hits + misses), 4),
    }


def _seeded_manifest(stream, tmp_dir: str, name: str):
    """A 2-shard round-robin deployment seeded with the first
    observation (the stream proper starts after it)."""
    _, first = stream[0]
    seed_track = PFV(first.mu, first.sigma, key=("seed", 0))
    return build_shards(
        PFVDatabase([seed_track]),
        2,
        os.path.join(tmp_dir, name),
        policy="round-robin",
    )


def run_sync_phase(stream, tmp_dir: str, *, window: int, k: int) -> dict:
    manifest = _seeded_manifest(stream, tmp_dir, "sync")
    with connect(
        manifest.source_path, backend="sharded", writable=True
    ) as session:

        def identify(obs, k):
            matches = session.execute(ConsensusTopK(obs, k)).matches
            return matches[0].key if matches else None

        def expire(track):
            assert session.delete(track), track.key

        result = churn(
            stream[1:],
            window_size=window,
            k=k,
            key_tag="sync",
            identify=identify,
            insert=session.insert,
            expire=expire,
        )
        result["objects_live"] = len(session)
    return result


def _drive_serve(host, port, stream, *, window: int, k: int) -> dict:
    with JsonlClient(host, port) as client:

        def identify(obs, k):
            resp = client.query([ConsensusTopK(obs, k)])
            if resp.get("status") != 200:
                raise RuntimeError(f"query failed: {resp}")
            matches = resp["results"][0]
            return matches[0]["key"] if matches else None

        def insert(track):
            resp = client.insert([track])
            if resp.get("status") != 200 or resp.get("inserted") != 1:
                raise RuntimeError(f"insert failed: {resp}")

        def expire(track):
            resp = client.delete([track])
            if resp.get("status") != 200 or resp.get("deleted") != 1:
                raise RuntimeError(f"delete failed: {resp}")

        result = churn(
            stream[1:],
            window_size=window,
            k=k,
            key_tag="serve",
            identify=identify,
            insert=insert,
            expire=expire,
        )
        health = client.healthz()
        result["objects_live"] = health.get("objects")
    return result


def run_serve_phase(
    stream,
    tmp_dir: str,
    *,
    window: int,
    k: int,
    server: str | None,
) -> dict:
    if server is not None:
        host, _, port = server.rpartition(":")
        result = _drive_serve(
            host or "127.0.0.1", int(port), stream, window=window, k=k
        )
        result["server"] = server
        return result
    manifest = _seeded_manifest(stream, tmp_dir, "serve")
    session = connect(manifest.source_path, backend="sharded", writable=True)
    with serve_async(session, port=0) as srv:
        result = _drive_serve(*srv.address, stream, window=window, k=k)
    result["server"] = "in-process serve_async"
    return result


def run_failover_phase(stream, tmp_dir: str, *, k: int) -> dict:
    """Bit-identical failover: a 48-query identification batch over a
    replicated deployment whose shard-0 replica file is lost must answer
    exactly like the fault-free run — keys, posteriors and consensus
    scores compared as floats, no tolerance. Reports the failovers the
    batch cost (``repro_cluster_failover_total``)."""
    tracks = [
        PFV(obs.mu, obs.sigma, key=("track", i))
        for i, (_, obs) in enumerate(stream[:64])
    ]
    manifest = build_shards(
        PFVDatabase(tracks), 2, os.path.join(tmp_dir, "failover"),
        replicas=1,
    )
    specs = [ConsensusTopK(obs, k) for _, obs in stream[64:112]]

    with connect(manifest.source_path, backend="sharded") as ref:
        expected = [list(matches) for matches in ref.execute_many(specs)]

    os.unlink(manifest.replica_paths()[0][0])
    failovers = counter("repro_cluster_failover_total")
    before = failovers.value
    with connect(manifest.source_path, backend="sharded") as session:
        got = [list(matches) for matches in session.execute_many(specs)]
    identical = len(got) == len(expected)
    for exp, act in zip(expected, got):
        identical = identical and (
            [m.key for m in exp] == [m.key for m in act]
            and all(
                a.probability == b.probability and a.score == b.score
                for a, b in zip(exp, act)
            )
        )
    return {
        "queries": len(specs),
        "tracks": len(tracks),
        "failovers": int(failovers.value - before),
        "bit_identical": identical,
    }


def run(
    *,
    identities: int,
    steps: int,
    d: int,
    window: int,
    k: int,
    seed: int,
    server: str | None,
    smoke: bool,
) -> dict:
    stream = make_stream(identities, steps, d, seed)
    tmp_dir = tempfile.mkdtemp()
    try:
        sync = run_sync_phase(stream, tmp_dir, window=window, k=k)
        serve = run_serve_phase(
            stream, tmp_dir, window=window, k=k, server=server
        )
        failover = run_failover_phase(stream, tmp_dir, k=min(k, 5))
    finally:
        shutil.rmtree(tmp_dir)
    return {
        "headline": {
            "sync_churn_per_second": sync["churn_per_second"],
            "serve_churn_per_second": serve["churn_per_second"],
            "sync_identify_p99_ms": sync["identify_p99_ms"],
            "serve_identify_p99_ms": serve["identify_p99_ms"],
            "reid_precision": sync["reid_precision"],
            "failover_bit_identical": failover["bit_identical"],
        },
        "workload": {
            "identities": identities,
            "observations": steps,
            "dims": d,
            "window": window,
            "k": k,
            "seed": seed,
            "smoke": smoke,
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": (
                "identify-then-insert with sliding-window expiry; sync "
                "is one in-process writable sharded session, serve is "
                "one pipelined JSONL client against a writable async "
                "server (writes serialize on the primary, so serve "
                "churn tracks per-request wire overhead, not cores)"
            ),
        },
        "sync": sync,
        "serve": serve,
        "failover": failover,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--identities", type=int, default=24)
    parser.add_argument("--steps", type=int, default=600)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--window", type=int, default=200)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="drive an external async writable server for the serve "
        "phase instead of starting one in-process",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI stream; throughput gates are reported, not "
        "asserted (the failover determinism gate always asserts)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_reid.json",
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.steps = min(args.steps, 160)
        args.window = min(args.window, 48)
    result = run(
        identities=args.identities,
        steps=args.steps,
        d=args.d,
        window=args.window,
        k=args.k,
        seed=args.seed,
        server=args.server,
        smoke=args.smoke,
    )
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result, indent=2))

    headline = result["headline"]
    # Correctness gates hold even in smoke runs.
    failures = []
    if result["failover"]["failovers"] < 1:
        failures.append("the lost replica file cost no failover")
    if not headline["failover_bit_identical"]:
        failures.append(
            "identification answers with a replica file lost differ from "
            "the fault-free run (must be bit-identical)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    soft = []
    if headline["sync_churn_per_second"] <= 0:
        soft.append("sync tier sustained no churn")
    if headline["serve_churn_per_second"] <= 0:
        soft.append("serve tier sustained no churn")
    if headline["reid_precision"] < 0.5:
        soft.append(
            f"re-identification precision {headline['reid_precision']} "
            "is below 0.5 (posterior is not identifying the stream)"
        )
    for failure in soft:
        print(f"FAIL: {failure}", file=sys.stderr)
    if soft and not args.smoke:
        return 1
    if soft:
        print(
            "(smoke run: gates reported above are informational)",
            file=sys.stderr,
        )
    print(
        f"\nchurn: sync {headline['sync_churn_per_second']}/s "
        f"(p99 identify {headline['sync_identify_p99_ms']} ms), serve "
        f"{headline['serve_churn_per_second']}/s (p99 identify "
        f"{headline['serve_identify_p99_ms']} ms); precision "
        f"{headline['reid_precision']}; failover bit-identical: "
        f"{headline['failover_bit_identical']} -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
