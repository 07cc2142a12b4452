#!/usr/bin/env python
"""Async serving-tier benchmark: coalescing speedup and load shedding.

Drives a live :class:`repro.serve.AsyncQueryServer` over real sockets
with closed-loop :class:`repro.serve.JsonlClient` threads (one pipelined
JSONL connection each) against an on-disk Gauss-tree, and answers the
two serving-tier claims:

* **Coalescing** — with >= 8 concurrent singleton-query clients, the
  dispatcher's batching window fuses neighbours into shared
  ``execute_many`` calls, so measured throughput must be at least 1.5x
  the same server with ``coalesce_reads=False`` (each request then
  executes alone). The amortization is the same one
  ``BENCH_persistence.json`` measures for client-side batching (~2x);
  coalescing recovers it for clients that cannot batch.
* **Shedding** — a saturation sweep over client counts finds the knee
  (the smallest count within 90% of peak throughput); a second server
  with a deliberately small admission queue is then offered ~2x the
  knee's load by pipelined clients that keep several requests in
  flight. It must shed the excess with 429s (not errors, not timeouts)
  while the p99 latency of the *accepted* requests stays within 3x the
  half-saturation p99 — backpressure keeps queue wait bounded instead
  of letting latency collapse.
* **Instrumentation overhead** — the default metrics registry and its
  instrument sites must cost <= 2% of coalescing throughput against the
  same server with a :class:`repro.obs.NullRegistry` (private and
  process-global both swapped out) — observability is on by default,
  so its cost is a gated claim, not a hope.

The gates are asserted on full runs (exit 1 on failure); ``--smoke``
shrinks the workload for CI and reports the gates without asserting
them (a 1-core container makes throughput ratios, not the mechanism,
unreliable). Writes ``BENCH_serve.json``.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py
      (--smoke shrinks the workload for CI)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cluster.wire import spec_to_json  # noqa: E402
from repro.data.synthetic import uniform_pfv_dataset  # noqa: E402
from repro.data.workload import identification_workload  # noqa: E402
from repro.engine import MLIQ, connect  # noqa: E402
from repro.gausstree.bulkload import bulk_load  # noqa: E402
from repro.obs import NullRegistry, set_global_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionConfig,
    CoalesceConfig,
    JsonlClient,
    serve_async,
)
from repro.storage.layout import PageLayout  # noqa: E402


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _drive(
    host: str,
    port: int,
    specs: list[dict],
    *,
    clients: int,
    depth: int,
    duration: float,
    honor_retry_after: bool = False,
) -> dict:
    """Closed-loop load: each client thread keeps ``depth`` requests in
    flight on one pipelined connection until the deadline, re-sending as
    responses land. With ``honor_retry_after`` (overload runs, depth 1)
    a 429 makes the client sleep the server's ``retry_after`` before
    re-offering, like a well-behaved :class:`ServeClient` would —
    hammering retries back instantly just measures the retry storm's CPU
    steal, not the server's shedding. Returns throughput, latency
    percentiles of accepted (200) responses, and the shed/error
    counts."""
    barrier = threading.Barrier(clients)
    results: list[dict] = [None] * clients  # type: ignore[list-item]

    def one(slot: int) -> None:
        latencies: list[float] = []
        shed = errors = 0
        inflight: dict[int, float] = {}
        cursor = slot  # spread clients across the workload
        with JsonlClient(host, port) as client:
            def send() -> None:
                nonlocal cursor
                spec = specs[cursor % len(specs)]
                cursor += clients
                rid = client.send("query", queries=[spec])
                inflight[rid] = time.perf_counter()

            barrier.wait()
            deadline = time.perf_counter() + duration
            for _ in range(depth):
                send()
            while inflight:
                resp = client.recv()
                now = time.perf_counter()
                started = inflight.pop(resp.get("id"), now)
                status = resp.get("status")
                if status == 200:
                    latencies.append(now - started)
                elif status == 429:
                    shed += 1
                    if honor_retry_after and not inflight:
                        time.sleep(float(resp.get("retry_after") or 0.05))
                else:
                    errors += 1
                if now < deadline:
                    send()
        results[slot] = {
            "latencies": latencies,
            "shed": shed,
            "errors": errors,
        }

    threads = [
        threading.Thread(target=one, args=(slot,)) for slot in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    latencies = [lat for r in results for lat in r["latencies"]]
    return {
        "clients": clients,
        "depth": depth,
        "completed": len(latencies),
        "queries_per_second": round(len(latencies) / elapsed, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
        "shed_429": sum(r["shed"] for r in results),
        "errors": sum(r["errors"] for r in results),
    }


def run(
    n: int,
    d: int,
    *,
    clients: int,
    max_batch: int,
    max_delay_ms: float,
    duration: float,
    sweep: list[int],
    seed: int,
    smoke: bool,
) -> dict:
    db = uniform_pfv_dataset(n=n, d=d, seed=seed)
    workload = identification_workload(db, 64, seed=seed + 1)
    specs = [spec_to_json(MLIQ(w.q, 10)) for w in workload]

    tmp_dir = tempfile.mkdtemp()
    try:
        index_path = os.path.join(tmp_dir, "serve.gauss")
        tree = bulk_load(
            db.vectors, layout=PageLayout(dims=d), sigma_rule=db.sigma_rule
        )
        tree.save(index_path)
        del tree

        window = CoalesceConfig(
            max_batch=max_batch, max_delay_seconds=max_delay_ms / 1e3
        )
        no_window = CoalesceConfig(
            max_batch=max_batch,
            max_delay_seconds=max_delay_ms / 1e3,
            coalesce_reads=False,
            coalesce_writes=False,
        )

        # Stage 1 — coalescing on vs off, same closed-loop client fleet.
        session = connect(index_path)
        with serve_async(session, port=0, coalesce=no_window) as server:
            baseline = _drive(
                *server.address, specs,
                clients=clients, depth=1, duration=duration,
            )
        session = connect(index_path)
        with serve_async(session, port=0, coalesce=window) as server:
            coalesced = _drive(
                *server.address, specs,
                clients=clients, depth=1, duration=duration,
            )
            coalesced_stats = server._stats_payload()["coalescing"]

        # Stage 1b — instrumentation overhead: the same coalescing
        # fleet against a server whose private registry is a no-op and
        # with the process-global registry swapped out too, so every
        # instrument site (admission, coalescing, WAL, buffer) costs
        # nothing. The default-instrumented leg above must stay within
        # 2% of this one — the "on by default" contract.
        session = connect(index_path)
        previous_registry = set_global_registry(NullRegistry())
        try:
            with serve_async(
                session, port=0, coalesce=window, registry=NullRegistry()
            ) as server:
                uninstrumented = _drive(
                    *server.address, specs,
                    clients=clients, depth=1, duration=duration,
                )
        finally:
            set_global_registry(previous_registry)

        # Stage 2 — saturation sweep on a coalescing server.
        session = connect(index_path)
        sweep_points = []
        with serve_async(session, port=0, coalesce=window) as server:
            for count in sweep:
                sweep_points.append(
                    _drive(
                        *server.address, specs,
                        clients=count, depth=1, duration=duration,
                    )
                )
        peak_qps = max(p["queries_per_second"] for p in sweep_points)
        knee = next(
            p for p in sweep_points
            if p["queries_per_second"] >= 0.9 * peak_qps
        )
        half_clients = max(1, knee["clients"] // 2)
        half = min(
            sweep_points, key=lambda p: abs(p["clients"] - half_clients)
        )

        # Stage 3 — 2x-saturation offered load against a small queue.
        session = connect(index_path)
        # The queue is the latency budget: every queued operation is one
        # the accepted request may wait behind, so cap pending work at
        # about a quarter batch and shed the rest — that is the whole
        # point of admission control. The straggler window goes to zero
        # too: under saturation the backlog forms batches by itself, so
        # waiting for stragglers only adds queue depth (and wait) for
        # free.
        overload_admission = AdmissionConfig(
            max_queue=max(2, max_batch // 4),
            max_queue_per_client=2,
        )
        overload_window = CoalesceConfig(
            max_batch=max_batch, max_delay_seconds=0.0
        )
        with serve_async(
            session,
            port=0,
            coalesce=overload_window,
            admission=overload_admission,
        ) as server:
            overload = _drive(
                *server.address, specs,
                clients=2 * knee["clients"], depth=1,
                duration=duration, honor_retry_after=True,
            )
    finally:
        shutil.rmtree(tmp_dir)

    coalesce_speedup = (
        coalesced["queries_per_second"]
        / max(baseline["queries_per_second"], 1e-9)
    )
    overhead = 1.0 - (
        coalesced["queries_per_second"]
        / max(uninstrumented["queries_per_second"], 1e-9)
    )
    p99_ratio = overload["p99_ms"] / max(half["p99_ms"], 1e-9)
    return {
        "headline": {
            "coalesce_speedup": round(coalesce_speedup, 3),
            "coalesced_queries_per_second": coalesced["queries_per_second"],
            "baseline_queries_per_second": baseline["queries_per_second"],
            "instrumentation_overhead": round(overhead, 4),
            "uninstrumented_queries_per_second": uninstrumented[
                "queries_per_second"
            ],
            "saturation_knee_clients": knee["clients"],
            "overload_shed_429": overload["shed_429"],
            "overload_accepted_p99_over_half_saturation_p99": round(
                p99_ratio, 3
            ),
        },
        "workload": {
            "n_objects": n,
            "dims": d,
            "k": 10,
            "singleton_clients": clients,
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "seconds_per_point": duration,
            "seed": seed,
            "smoke": smoke,
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "note": (
                "closed-loop JSONL clients over real sockets against one "
                "disk session (pool_size=1); coalescing recovers the "
                "execute_many batch amortization for singleton clients, "
                "so its speedup tracks BENCH_persistence's batch-vs-"
                "singleton ratio, not core count"
            ),
        },
        "coalescing": {
            "baseline": baseline,
            "coalesced": coalesced,
            "uninstrumented": uninstrumented,
            "server_counters": {
                key: coalesced_stats[key]
                for key in ("read_batches", "coalesced_reads", "max_batch")
            },
        },
        "saturation_sweep": sweep_points,
        "overload": {
            "offered_clients": 2 * knee["clients"],
            "pipeline_depth": 1,
            "admission_max_queue": overload_admission.max_queue,
            "half_saturation_point": half,
            **overload,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, default=int(os.environ.get("REPRO_BENCH_N", 20000))
    )
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument(
        "--duration", type=float, default=3.0,
        help="seconds of closed-loop load per measured point",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload; gates are reported, not asserted",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_serve.json",
        ),
    )
    args = parser.parse_args(argv)
    sweep = [1, 2, 4, 8, 16, 32]
    if args.smoke:
        args.n = min(args.n, 2000)
        args.duration = min(args.duration, 0.5)
        sweep = [1, 4, 8]
    result = run(
        args.n,
        args.d,
        clients=args.clients,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        duration=args.duration,
        sweep=sweep,
        seed=args.seed,
        smoke=args.smoke,
    )
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result, indent=2))

    headline = result["headline"]
    failures = []
    if headline["coalesce_speedup"] < 1.5:
        failures.append(
            f"coalescing speedup {headline['coalesce_speedup']}x with "
            f"{args.clients} singleton clients is below 1.5x"
        )
    if headline["overload_shed_429"] <= 0:
        failures.append("overload produced no 429s (admission never shed)")
    if result["overload"]["errors"] > 0:
        failures.append(
            f"overload produced {result['overload']['errors']} hard errors "
            "(should shed with 429s instead)"
        )
    if headline["overload_accepted_p99_over_half_saturation_p99"] > 3.0:
        failures.append(
            "accepted-request p99 under 2x-saturation load is "
            f"{headline['overload_accepted_p99_over_half_saturation_p99']}x "
            "the half-saturation p99 (gate: 3x)"
        )
    if headline["instrumentation_overhead"] > 0.02:
        failures.append(
            "default instrumentation costs "
            f"{headline['instrumentation_overhead']:.1%} of coalescing "
            "throughput vs the NullRegistry server (gate: 2%)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures and not args.smoke:
        return 1
    if failures:
        print(
            "(smoke run: gates reported above are informational)",
            file=sys.stderr,
        )
    print(
        f"\ncoalescing: {headline['coalesce_speedup']}x qps with "
        f"{args.clients} singleton clients "
        f"({headline['baseline_queries_per_second']} -> "
        f"{headline['coalesced_queries_per_second']} qps); knee at "
        f"{headline['saturation_knee_clients']} clients; overload shed "
        f"{headline['overload_shed_429']} with accepted p99 at "
        f"{headline['overload_accepted_p99_over_half_saturation_p99']}x "
        "half-saturation; instrumentation overhead "
        f"{headline['instrumentation_overhead']:.1%} -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
