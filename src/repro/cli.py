"""Command-line experiment runner and index tool.

Regenerates the paper's figures without writing any Python:

    python -m repro figure6 --dataset 1 --queries 50
    python -m repro figure7 --dataset 2 --queries 25 --scale 0.1
    python -m repro example

``figure6``/``figure7`` print the same tables the paper reports (and the
benchmarks commit); ``example`` runs the Figure-1 worked example. Scales
below 1.0 shrink the datasets proportionally for quick looks.

The index lifecycle commands exercise the real storage path: ``build``
bulk-loads one of the paper's datasets into a Gauss-tree and saves it as
a single index file, ``query`` connects a unified-engine session to that
file from a *fresh process* and answers MLIQ/TIQ/Rank batches through
``Session.execute_many`` — on any registered backend (``--backend=disk``
serves the saved tree's lazily decoded pages; ``tree``, ``seqscan`` and
``xtree`` materialize the stored objects first, so the same file can be
queried through every access method) — and ``insert`` opens the index
*writable* and grows it with durable, WAL-committed inserts:

    python -m repro build ds1.gauss --dataset 1 --scale 0.2
    python -m repro query ds1.gauss --k 5 --queries 100
    python -m repro query ds1.gauss --theta 0.3 --backend seqscan
    python -m repro query ds1.gauss --rank 10 --min-mass 0.95 --explain
    python -m repro insert ds1.gauss --count 500

``insert`` doubles as the crash-recovery demonstrator: kill the process
at any point (or pass ``--exit-after N`` for a deterministic mid-workload
``kill -9`` equivalent) and the next ``query``/``insert`` replays the
write-ahead log — every insert that completed survives.

The sharded serving commands (see README "Sharded serving"):

    python -m repro shard-build cluster/ds1 --dataset 1 --shards 4
    python -m repro query cluster/ds1.shards.json --backend sharded --k 5
    python -m repro serve cluster/ds1.shards.json --port 8631

``shard-build`` partitions a dataset deterministically (hash or
round-robin), saves one Gauss-tree index per shard and writes the
``.shards.json`` manifest (``--replicas K`` clones each shard for read
routing and failover); ``query --backend sharded`` fans batches out
to the shards and merges globally renormalised posteriors; ``serve``
exposes any index (or manifest) over pipelined JSONL and HTTP;
``reshard MANIFEST --shards N`` rebuilds the deployment at a new shard
count and cuts over atomically while queries keep flowing (it refuses
while any shard is open writable).
``query --input workload.jsonl`` (or ``--input -`` for stdin) replays a
JSONL spec file — the same wire format the server accepts — instead of
generating a re-observation workload.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from repro.data.workload import identification_workload
from repro.eval.figures import dataset1, dataset2, figure6, figure7
from repro.eval.report import format_figure6, format_figure7

__all__ = ["main"]


def _build_dataset(which: int, scale: float | None):
    if which == 1:
        return dataset1(scale=scale)
    if which == 2:
        return dataset2(scale=scale)
    raise SystemExit(f"unknown dataset {which}; the paper has 1 and 2")


def _cmd_figure6(args: argparse.Namespace) -> None:
    db = _build_dataset(args.dataset, args.scale)
    workload = identification_workload(db, args.queries, seed=args.seed)
    started = time.perf_counter()
    rows = figure6(db, workload)
    title = (
        f"Figure 6({'a' if args.dataset == 1 else 'b'}) - data set "
        f"{args.dataset} (n={len(db)}, {args.queries} queries)"
    )
    print(format_figure6(rows, title))
    print(f"[{time.perf_counter() - started:.1f}s]")


def _cmd_figure7(args: argparse.Namespace) -> None:
    db = _build_dataset(args.dataset, args.scale)
    workload = identification_workload(db, args.queries, seed=args.seed)
    started = time.perf_counter()
    cells = figure7(db, workload)
    title = (
        f"Figure 7({'a' if args.dataset == 1 else 'b'}) - data set "
        f"{args.dataset} (n={len(db)}, {args.queries} queries)"
    )
    print(format_figure7(cells, title))
    print(f"[{time.perf_counter() - started:.1f}s]")


def _cmd_example(_args: argparse.Namespace) -> None:
    from repro import MLIQuery, PFV, PFVDatabase, scan_mliq

    db = PFVDatabase(
        [
            PFV([4.42, 1.50], [0.21, 0.21], key="O1"),
            PFV([1.18, 1.46], [1.34, 1.55], key="O2"),
            PFV([3.82, 1.20], [1.22, 0.37], key="O3"),
        ]
    )
    query = PFV([3.59, 2.46], [0.23, 1.58])
    print("Figure 1 worked example - posteriors P(v|q):")
    for m in scan_mliq(db, MLIQuery(query, 3)):
        print(f"  {m.key}: {m.probability:.1%}")
    print("(paper: O3 77%, O2 13%, O1 10%; Euclidean NN would pick O1)")


def _cmd_build(args: argparse.Namespace) -> None:
    from repro.gausstree.bulkload import bulk_load
    from repro.storage.layout import PageLayout

    db = _build_dataset(args.dataset, args.scale)
    layout = PageLayout(dims=db.dims, page_size=args.page_size)
    started = time.perf_counter()
    tree = bulk_load(db.vectors, layout=layout, sigma_rule=db.sigma_rule)
    built = time.perf_counter()
    tree.save(args.index)
    saved = time.perf_counter()
    print(
        f"built {tree!r} from data set {args.dataset} "
        f"in {built - started:.1f}s, saved to {args.index} "
        f"in {saved - built:.1f}s"
    )


def _load_input_specs(path: str):
    """Parse a JSONL workload file (``-`` reads stdin)."""
    from repro.cluster.wire import WireError, load_jsonl

    try:
        if path == "-":
            specs = load_jsonl(sys.stdin)
        else:
            with open(path, encoding="utf-8") as f:
                specs = load_jsonl(f)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None
    except WireError as exc:
        raise SystemExit(f"bad workload {path}: {exc}") from None
    if not specs:
        raise SystemExit(f"workload {path} holds no queries")
    return specs


def _cmd_query(args: argparse.Namespace) -> None:
    from repro.engine import (
        MLIQ,
        TIQ,
        ConsensusTopK,
        ExpectedRank,
        RankQuery,
        connect,
    )

    modes = sum(
        x is not None
        for x in (args.k, args.theta, args.rank, args.consensus, args.erank)
    )
    if args.input is not None:
        if modes:
            raise SystemExit(
                "--input replays a spec file; drop "
                "--k/--theta/--rank/--consensus/--erank "
                "(each line carries its own kind and parameters)"
            )
    elif modes != 1:
        raise SystemExit(
            "pass exactly one of --k (MLIQ), --theta (TIQ), --rank, "
            "--consensus or --erank "
            "(or --input FILE for a JSONL workload)"
        )
    if args.min_mass is not None and args.rank is None:
        raise SystemExit("--min-mass only applies to --rank queries")
    if args.queries < 1:
        raise SystemExit("--queries must be at least 1")
    started = time.perf_counter()
    session = connect(args.index, backend=args.backend)
    opened = time.perf_counter()
    print(f"connected {session!r} to {args.index} in {opened - started:.2f}s")
    workload = None
    if args.input is not None:
        specs = _load_input_specs(args.input)
    else:
        # Re-observation workload over the stored objects, like the
        # paper's evaluation protocol (materializes the index once to
        # sample from it).
        db = session.database()
        workload = identification_workload(db, args.queries, seed=args.seed)
        try:
            if args.k is not None:
                specs = [MLIQ(w.q, args.k) for w in workload]
            elif args.theta is not None:
                specs = [TIQ(w.q, args.theta) for w in workload]
            elif args.consensus is not None:
                specs = [ConsensusTopK(w.q, args.consensus) for w in workload]
            elif args.erank is not None:
                specs = [ExpectedRank(w.q, args.erank) for w in workload]
            else:
                specs = [
                    RankQuery(w.q, args.rank, min_mass=args.min_mass)
                    for w in workload
                ]
        except ValueError as exc:  # bad --k/--theta/--min-mass
            raise SystemExit(str(exc)) from None
    sampled = time.perf_counter()
    if args.explain:
        print(session.explain(specs).describe())
    result = session.execute_many(specs)
    finished = time.perf_counter()
    stats = result.stats
    line = (
        f"{len(specs)} queries in {finished - sampled:.2f}s "
        f"({(finished - sampled) / len(specs) * 1e3:.1f} ms/query, "
        f"backend={result.backend}): {stats.pages_accessed} page accesses, "
        f"{stats.page_faults} faults"
    )
    if workload is not None:
        hits = sum(
            1
            for w, matches in zip(workload, result)
            if matches and matches[0].key == w.true_key
        )
        line += f", top-1 hit rate {hits / len(specs):.0%}"
    print(line)
    if result.provenance:
        for shard_name, shard_stats in result.provenance:
            print(
                f"  {shard_name}: {shard_stats.pages_accessed} pages, "
                f"{shard_stats.objects_refined} refinements"
            )
    if workload is not None:
        for w, matches in list(zip(workload, result))[: args.show]:
            top = ", ".join(
                f"{m.key!r}:{m.probability:.1%}" for m in matches[:3]
            )
            print(f"  true={w.true_key!r} -> [{top}]")
    else:
        for spec, matches in list(zip(specs, result))[: args.show]:
            top = ", ".join(
                f"{m.key!r}:{m.probability:.1%}" for m in matches[:3]
            )
            print(f"  {spec.kind} -> [{top}]")
    session.close()


def _cmd_shard_build(args: argparse.Namespace) -> None:
    from repro.cluster import build_shards

    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    db = _build_dataset(args.dataset, args.scale)
    started = time.perf_counter()
    manifest = build_shards(
        db,
        args.shards,
        args.out_prefix,
        policy=args.policy,
        page_size=args.page_size,
        replicas=args.replicas,
    )
    elapsed = time.perf_counter() - started
    sizes = ", ".join(str(s.objects) for s in manifest.shards)
    print(
        f"sharded data set {args.dataset} (n={len(db)}) into "
        f"{manifest.n_shards} shard(s) [{sizes}] with policy "
        f"{manifest.policy!r}"
        + (f", {args.replicas} replica(s) each" if args.replicas else "")
        + f" in {elapsed:.1f}s"
    )
    print(f"manifest: {manifest.source_path}")
    print(f"serve it:  python -m repro serve {manifest.source_path}")


def _cmd_reshard(args: argparse.Namespace) -> None:
    from repro.cluster import ClusterError, reshard

    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    started = time.perf_counter()
    try:
        manifest = reshard(
            args.manifest,
            args.shards,
            policy=args.policy,
            page_size=args.page_size,
            replicas=args.replicas,
        )
    except ClusterError as exc:
        raise SystemExit(f"reshard refused: {exc}") from exc
    elapsed = time.perf_counter() - started
    sizes = ", ".join(str(s.objects) for s in manifest.shards)
    print(
        f"resharded {args.manifest} to {manifest.n_shards} shard(s) "
        f"[{sizes}] (generation {manifest.generation}, policy "
        f"{manifest.policy!r}) in {elapsed:.1f}s"
    )
    print(
        "cutover is atomic: sessions opened before it keep serving the "
        "old generation; run `repro reshard-gc` once they are gone"
    )


def _cmd_reshard_gc(args: argparse.Namespace) -> None:
    from repro.cluster import reshard_gc

    report = reshard_gc(args.manifest, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    for path in report["deleted"]:
        print(f"{verb} {path}")
    for path in report["busy"]:
        print(f"busy (still open by a pre-cutover session): {path}")
    mib = report["reclaimed_bytes"] / (1024 * 1024)
    print(
        f"{verb} {len(report['deleted'])} old-generation file(s) "
        f"({mib:.1f} MiB), {len(report['busy'])} busy; current "
        f"generation {report['generation']} untouched"
    )


def _serve_registry(args):
    """The server's metrics registry from the CLI flags: ``None``
    (instrument with a private default registry) unless ``--no-metrics``
    asked for the no-op mode — which also silences the process-global
    registry (WAL / cluster / buffer series)."""
    if not args.no_metrics:
        return None
    from repro.obs import NullRegistry, set_global_registry

    set_global_registry(NullRegistry())
    return NullRegistry()


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.engine import connect
    from repro.serve import AdmissionConfig, AsyncQueryServer, CoalesceConfig

    backend = args.backend
    if backend == "auto":
        backend = (
            "sharded" if args.index.endswith(".json") else "disk"
        )
    if args.sessions < 1:
        raise SystemExit("--sessions must be at least 1")
    started = time.perf_counter()
    session = connect(args.index, backend=backend, writable=args.writable)
    print(
        f"connected {session!r} to {args.index} "
        f"in {time.perf_counter() - started:.2f}s"
    )
    # Replica sessions open the same source read-only; they serve
    # queries concurrently while writes serialize on the primary.
    factory = (
        (lambda: connect(args.index, backend=backend))
        if args.sessions > 1
        else None
    )
    server = AsyncQueryServer(
        session,
        args.host,
        args.port,
        session_factory=factory,
        pool_size=args.sessions,
        admission=AdmissionConfig(
            max_queue=args.max_queue,
            max_queue_per_client=args.max_queue_per_client,
        ),
        coalesce=CoalesceConfig(
            max_batch=args.max_batch,
            max_delay_seconds=args.max_delay_ms / 1e3,
        ),
        drain_timeout=args.drain_timeout,
        registry=_serve_registry(args),
        slow_query_log=args.slow_query_log,
        slow_query_ms=args.slow_query_ms,
    ).serve_in_background()
    host, port = server.address
    coalesce_note = (
        "coalescing off"
        if args.max_batch == 1
        else f"coalescing <= {args.max_batch} per batch, "
        f"{args.max_delay_ms:g} ms window"
    )
    print(
        f"serving http://{host}:{port} with {args.sessions} session(s) "
        f"(async: pipelined JSONL + HTTP, {coalesce_note}, queue "
        f"{args.max_queue}) — Ctrl-C to stop",
        flush=True,
    )
    # A shell without job control starts background jobs with SIGINT
    # ignored, and Python then never raises KeyboardInterrupt; re-arm
    # it so `kill -INT` drains the server however it was launched.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\ndraining")
    finally:
        server.shutdown()
        session.close()


# Series `repro top` surfaces, in display order: (metric, short label).
# Histograms render their _count/_sum as "N @ mean"; everything else is
# the raw value.
_TOP_ROWS = (
    ("repro_serve_queries_total", "queries"),
    ("repro_serve_inserts_total", "inserts"),
    ("repro_serve_errors_total", "errors"),
    ("repro_serve_queue_depth", "queue depth"),
    ("repro_serve_queue_depth_peak", "queue peak"),
    ("repro_serve_admitted_total", "admitted"),
    ("repro_serve_shed_total", "shed (429)"),
    ("repro_serve_read_batches_total", "read batches"),
    ("repro_serve_coalesced_reads_total", "coalesced reads"),
    ("repro_serve_write_batches_total", "write batches"),
    ("repro_serve_coalesced_inserts_total", "coalesced inserts"),
    ("repro_serve_batch_size", "batch size"),
    ("repro_serve_admission_wait_seconds", "admission wait"),
    ("repro_serve_execute_seconds", "execute"),
    ("repro_serve_pool_in_use", "pool in use"),
    ("repro_serve_pool_size", "pool size"),
    ("repro_serve_pool_waits_total", "pool waits"),
    ("repro_cluster_fanouts_total", "cluster fan-outs"),
    ("repro_cluster_fanout_seconds", "fan-out latency"),
    ("repro_cluster_retry_total", "cluster retries"),
    ("repro_cluster_failover_total", "cluster failovers"),
    ("repro_buffer_hit_ratio", "buffer hit ratio"),
    ("repro_buffer_evictions_total", "buffer evictions"),
    ("repro_wal_commits_total", "WAL commits"),
    ("repro_wal_fsync_seconds", "WAL fsync"),
)


def _parse_exposition(text: str) -> dict[str, dict[str, float]]:
    """Prometheus text -> {metric: {labelled sample name: value}}.

    Histogram samples fold under their base name (``_bucket`` dropped,
    ``_sum``/``_count`` kept as pseudo-labels); labelled series keep
    their ``{...}`` suffix as the sample key.
    """
    series: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(" ", 1)
            value = float(value_part)
        except ValueError:
            continue
        name, _, labels = name_part.partition("{")
        base = name
        sample = "{" + labels if labels else ""
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                sample = suffix.lstrip("_") + sample
                break
        series.setdefault(base, {})[sample] = value
    return series


def _format_top(series: dict[str, dict[str, float]]) -> list[str]:
    lines = []
    for metric, label in _TOP_ROWS:
        samples = series.get(metric)
        if not samples:
            continue
        if "count" in samples:  # histogram: render count @ mean
            count = samples.get("count", 0.0)
            total = samples.get("sum", 0.0)
            mean = total / count if count else 0.0
            if metric.endswith("_seconds"):
                value = f"{int(count)} @ {mean * 1e3:.2f} ms mean"
            else:
                value = f"{int(count)} @ {mean:.1f} mean"
        elif "" in samples and len(samples) == 1:
            v = samples[""]
            value = f"{v:g}" if v != int(v) else f"{int(v)}"
        else:  # labelled family: show each label set
            value = "  ".join(
                f"{k or 'total'}={v:g}" for k, v in sorted(samples.items())
            )
        lines.append(f"  {label:<18} {value}")
    return lines


def _cmd_top(args: argparse.Namespace) -> None:
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/")
    if not url.startswith("http"):
        url = "http://" + url
    try:
        with urllib.request.urlopen(
            url + "/metrics", timeout=args.timeout
        ) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        raise SystemExit(f"cannot scrape {url}/metrics: {exc}")
    series = _parse_exposition(text)
    lines = _format_top(series)
    print(f"{url}  ({len(series)} series)")
    if lines:
        print("\n".join(lines))
    else:
        print("  (no repro_* series exposed yet — drive some traffic)")


def _cmd_trace(args: argparse.Namespace) -> None:
    import json

    from repro.obs import format_span_tree

    def render(entry: dict, index: int) -> None:
        trace = entry.get("trace") or (
            entry if "spans" in entry else None
        )
        header = []
        if "elapsed_ms" in entry:
            header.append(f"{entry['elapsed_ms']:.1f} ms")
        if entry.get("source"):
            header.append(str(entry["source"]))
        if trace and trace.get("id"):
            header.append(f"trace {trace['id']}")
        print(f"-- entry {index}" + (f" ({', '.join(header)})" if header else ""))
        if trace:
            print(format_span_tree(trace))
        else:
            print("  (no span tree in this entry)")
        if args.plan and entry.get("plan"):
            print(entry["plan"])

    source = sys.stdin if args.file == "-" else open(args.file)
    shown = 0
    try:
        for i, line in enumerate(source):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"-- entry {i}: unparseable line ({exc})")
                continue
            render(entry, i)
            shown += 1
            if args.limit and shown >= args.limit:
                break
    finally:
        if source is not sys.stdin:
            source.close()
    if not shown:
        print("no entries")


def _cmd_insert(args: argparse.Namespace) -> None:
    import os

    import numpy as np

    from repro.core.pfv import PFV
    from repro.gausstree.tree import GaussTree

    if args.count < 1:
        raise SystemExit("--count must be at least 1")
    started = time.perf_counter()
    tree = GaussTree.open(
        args.index,
        writable=True,
        fsync=not args.no_fsync,
        auto_checkpoint_bytes=args.auto_checkpoint_bytes,
    )
    opened = time.perf_counter()
    print(
        f"opened {tree!r} writable from {args.index} "
        f"in {opened - started:.2f}s (WAL recovery included if any)"
    )
    rng = np.random.default_rng(args.seed)
    rect = tree.root.rect
    if rect is not None:
        mu_lo, mu_hi = rect.mu_lo, rect.mu_hi
        sigma_lo = np.maximum(rect.sigma_lo, 1e-3)
        sigma_hi = np.maximum(rect.sigma_hi, sigma_lo)
    else:  # empty index: fall back to the unit box
        mu_lo, mu_hi = np.zeros(tree.dims), np.ones(tree.dims)
        sigma_lo, sigma_hi = np.full(tree.dims, 0.05), np.full(tree.dims, 0.4)
    if args.batch is not None and args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    inserted = 0
    insert_started = time.perf_counter()
    # Number keys from the current object count so repeated runs (and
    # runs resumed after a crash) never mint duplicate identities.
    key_base = len(tree)
    step = args.batch or 1
    for start in range(0, args.count, step):
        # Generate lazily, one chunk at a time: a kill -9 demo passes
        # --count 100000 and must be inserting within milliseconds, not
        # materializing the whole workload first.
        size = min(step, args.count - start)
        if args.exit_after is not None:
            size = min(size, args.exit_after - inserted)
        chunk = [
            PFV(
                rng.uniform(mu_lo, mu_hi),
                rng.uniform(sigma_lo, sigma_hi),
                key=("ins", key_base + start + i),
            )
            for i in range(size)
        ]
        if args.batch is None:
            for v in chunk:  # per-op commits: one fsync each
                tree.insert(v)
        elif chunk:
            tree.insert_many(chunk)  # group commit: one fsync per batch
        inserted += len(chunk)
        if args.exit_after is not None and inserted >= args.exit_after:
            # Simulated kill -9: no checkpoint, no close, no cleanup.
            # The WAL alone carries everything committed so far.
            print(
                f"exiting hard after {inserted} durable inserts "
                "(recovery will replay the WAL on the next open)",
                flush=True,
            )
            os._exit(1)
    elapsed = time.perf_counter() - insert_started
    print(
        f"{inserted} inserts in {elapsed:.2f}s "
        f"({inserted / elapsed:.0f} inserts/s, "
        f"fsync={'off' if args.no_fsync else 'per-commit'}, "
        f"commit={'per-op' if args.batch is None else f'group/{args.batch}'}"
        f"), index now holds {len(tree)} objects"
    )
    if args.no_flush:
        tree.close(checkpoint=False)
        print("closed without checkpoint: state rides in the WAL")
    else:
        flush_started = time.perf_counter()
        tree.close()
        print(f"checkpointed in {time.perf_counter() - flush_started:.2f}s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Gauss-tree reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("figure6", _cmd_figure6, "effectiveness: NN vs MLIQ precision/recall"),
        ("figure7", _cmd_figure7, "efficiency: pages/CPU/overall vs the scan"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", type=int, default=1, choices=(1, 2))
        p.add_argument("--queries", type=int, default=50)
        p.add_argument(
            "--scale",
            type=float,
            default=None,
            help="dataset size multiplier (default: paper size for DS1, "
            "0.2 for DS2 unless REPRO_FULL_SCALE=1)",
        )
        p.add_argument("--seed", type=int, default=7)
        p.set_defaults(func=func)

    p = sub.add_parser("example", help="the paper's Figure 1 worked example")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser(
        "build", help="bulk-load a dataset and save the index to disk"
    )
    p.add_argument("index", help="output index file (e.g. ds1.gauss)")
    p.add_argument("--dataset", type=int, default=1, choices=(1, 2))
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset size multiplier (same semantics as figure6/figure7)",
    )
    p.add_argument(
        "--page-size",
        type=int,
        default=8192,
        help="bytes per index page (default: 8192)",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "insert",
        help="open an index writable and add WAL-durable random objects",
    )
    p.add_argument(
        "index", help="format v2 or v3 index file (`build` writes v3)"
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="group-commit N inserts per WAL transaction (one fsync per "
        "batch, all-or-nothing recovery; default: one commit per insert)",
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip the per-commit fsync (faster; bounded loss on power cut)",
    )
    p.add_argument(
        "--no-flush",
        action="store_true",
        help="close without checkpointing; the next open replays the WAL",
    )
    p.add_argument(
        "--auto-checkpoint-bytes",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint automatically whenever the WAL reaches N bytes "
        "(bounds recovery replay; default: only flush on close)",
    )
    p.add_argument(
        "--exit-after",
        type=int,
        default=None,
        metavar="N",
        help="os._exit(1) after N inserts - a deterministic kill -9 "
        "for crash-recovery demos and CI",
    )
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser(
        "query",
        help="open a saved index and answer an MLIQ/TIQ/Rank batch "
        "through the unified session API",
    )
    p.add_argument(
        "index",
        help="index file written by `build`, or a .shards.json manifest "
        "written by `shard-build` (use --backend sharded)",
    )
    p.add_argument(
        "--backend",
        default="disk",
        choices=("disk", "tree", "seqscan", "xtree", "sharded"),
        help="access method serving the batch (default: disk — the "
        "saved Gauss-tree itself; tree/seqscan/xtree materialize the "
        "stored objects first; sharded fans out over a shard manifest)",
    )
    p.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="replay a JSONL spec workload (one query object per line, "
        "the `repro serve` wire format) instead of generating a "
        "re-observation workload; '-' reads stdin",
    )
    p.add_argument(
        "--k", type=int, default=None, help="answer k-MLIQs with this k"
    )
    p.add_argument(
        "--theta",
        type=float,
        default=None,
        help="answer TIQs with this probability threshold",
    )
    p.add_argument(
        "--rank",
        type=int,
        default=None,
        help="answer probabilistic top-k RankQueries with this k",
    )
    p.add_argument(
        "--min-mass",
        type=float,
        default=None,
        help="truncate --rank answers at this cumulative posterior mass",
    )
    p.add_argument(
        "--consensus",
        type=int,
        default=None,
        help="answer consensus top-k (ConsensusTopK) with this k",
    )
    p.add_argument(
        "--erank",
        type=int,
        default=None,
        help="answer expected-rank top-k (ExpectedRank) with this k",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the session's query plan before executing",
    )
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--show",
        type=int,
        default=5,
        help="print the top matches of this many queries (default: 5)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "shard-build",
        help="partition a dataset into N per-shard Gauss-tree indexes "
        "plus a .shards.json manifest",
    )
    p.add_argument(
        "out_prefix",
        help="output prefix: writes <prefix>.shard-NN.gauss files and "
        "the <prefix>.shards.json manifest",
    )
    p.add_argument("--dataset", type=int, default=1, choices=(1, 2))
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset size multiplier (same semantics as figure6/figure7)",
    )
    p.add_argument("--shards", type=int, default=4)
    p.add_argument(
        "--policy",
        default="hash",
        choices=("hash", "round-robin"),
        help="shard placement: stable key hash (default) or position "
        "round-robin",
    )
    p.add_argument(
        "--page-size",
        type=int,
        default=8192,
        help="bytes per shard index page (default: 8192)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="replica clones per shard (recorded in the manifest; WAL "
        "shipping keeps them live, reads rotate across them and fail "
        "over when a worker dies; default: 0)",
    )
    p.set_defaults(func=_cmd_shard_build)

    p = sub.add_parser(
        "reshard",
        help="re-shard a deployment to a new shard count, cutting over "
        "atomically via the manifest while queries keep flowing (refused "
        "while any shard is open writable)",
    )
    p.add_argument(
        "manifest", help=".shards.json manifest written by `shard-build`"
    )
    p.add_argument(
        "--shards", type=int, required=True, help="new shard count"
    )
    p.add_argument(
        "--policy",
        default=None,
        choices=("hash", "round-robin"),
        help="placement policy for the new layout (default: keep the "
        "deployment's current policy)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="replica clones per new shard (default: keep the current "
        "per-shard replica count)",
    )
    p.add_argument(
        "--page-size",
        type=int,
        default=8192,
        help="bytes per new shard index page (default: 8192)",
    )
    p.set_defaults(func=_cmd_reshard)

    p = sub.add_parser(
        "reshard-gc",
        help="delete old-generation shard files left behind by reshard "
        "cutovers, once flock probes show no live readers",
    )
    p.add_argument(
        "manifest", help=".shards.json manifest of the deployment"
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="only list what would be deleted (and what is busy)",
    )
    p.set_defaults(func=_cmd_reshard_gc)

    p = sub.add_parser(
        "serve",
        help="serve an index (or shard manifest) over pipelined JSONL "
        "and HTTP on one port, with admission control and request "
        "coalescing (docs/serving.md)",
    )
    p.add_argument(
        "index",
        help="index file from `build` or .shards.json manifest from "
        "`shard-build`",
    )
    p.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "disk", "tree", "seqscan", "xtree", "sharded"),
        help="backend behind the endpoint (auto: sharded for a "
        ".json manifest, disk otherwise)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8631,
        help="listening port (0 binds an ephemeral port)",
    )
    p.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="session-pool size: coalesced read batches execute "
        "concurrently on this many sessions over the same index "
        "(default 1; replica sessions are refreshed after every "
        "accepted insert, so reads through any slot are "
        "read-your-writes consistent)",
    )
    p.add_argument(
        "--writable",
        action="store_true",
        help="open the primary session writable and accept "
        "POST /insert (writes serialize on the primary session)",
    )
    # Accepted and ignored: the asyncio tier is the only server, and
    # launch scripts written for 1.x still pass --async.
    p.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="most engine operations fused into one coalesced batch "
        "(default 16; 1 turns coalescing off)",
    )
    p.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="how long a free session waits for stragglers before "
        "executing an underfull batch (default 2 ms)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=512,
        help="global admission-queue bound; requests over it answer "
        "429 (default 512)",
    )
    p.add_argument(
        "--max-queue-per-client",
        type=int,
        default=64,
        help="per-connection admission bound (default 64)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds shutdown waits for admitted requests to finish "
        "(default 10)",
    )
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=250.0,
        help="slow-query threshold: requests whose end-to-end time "
        "(queue wait included) crosses this log one JSONL entry with "
        "span tree and explain() plan (default 250; needs "
        "--slow-query-log)",
    )
    p.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help="append slow-query entries to this JSONL file "
        "(render with `repro trace PATH`)",
    )
    p.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable instrumentation: /metrics serves an empty "
        "exposition and every registry call becomes a no-op",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "top",
        help="scrape a serving endpoint's GET /metrics and render the "
        "key series as a compact table",
    )
    p.add_argument(
        "url",
        help="endpoint base URL (host:port or http://host:port)",
    )
    p.add_argument(
        "--timeout", type=float, default=5.0, help="scrape timeout"
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "trace",
        help="render the span trees in a slow-query log (or any JSONL "
        "file of traced responses)",
    )
    p.add_argument(
        "file",
        help="slow-query log path from `serve --slow-query-log` "
        "(- reads stdin)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=0,
        help="show at most this many entries (0 = all)",
    )
    p.add_argument(
        "--plan",
        action="store_true",
        help="also print each entry's explain() plan text",
    )
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
