#!/usr/bin/env python
"""Write-path benchmark: group commit vs per-operation WAL commits.

Opens a saved Gauss-tree *writable* and measures durable (fsync'd)
insert throughput two ways:

* ``per_op``       — one WAL transaction + fsync per ``insert`` (the
  PR-2 write path; every insert logs full images of the pages it
  dirtied, ~30 KB each on the default 8 KiB layout).
* ``group_commit`` — ``insert_many`` batches (8 / 32 / 128) coalesced
  into one WAL transaction each: one fsync per batch and each dirtied
  page logged once (latest image), so both the barrier count and the
  WAL byte volume collapse.

Both wall-clock and **modeled** numbers are reported, per the repo's
figure-7 convention (see ``docs/benchmarks.md``): containerised hosts
absorb fsync into a write cache (~0.1 ms), hiding exactly the cost
group commit exists to amortise, so durable-commit time is also priced
by ``DiskCostModel.commit_seconds`` (sequential WAL transfer plus one
positioning delay per fsync barrier on the modeled 2006 disk). The
acceptance bar — group commit at batch >= 32 serves >= 5x the fsync'd
insert throughput of per-op commits — is asserted on the modeled
ruler, and the measured wall-clock ratio is reported alongside.

Sanity is asserted, not assumed: every mode's tree is closed *without*
a checkpoint and recovered from the WAL alone; recovered counts must be
exact (group batches all-or-nothing) and a recovered MLIQ must answer
identically to an in-memory tree of the same objects. A final section
measures the same batched writes routed through a writable **sharded**
session (placement-routed ``insert_many`` + interleaved queries).

Run:  PYTHONPATH=src python benchmarks/bench_writes.py
      (--smoke shrinks the workload for CI; REPRO_BENCH_N /
      REPRO_BENCH_WRITES size the full run)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from _bench import environment  # noqa: E402
from repro.core.pfv import PFV  # noqa: E402
from repro.core.queries import MLIQuery  # noqa: E402
from repro.data.synthetic import uniform_pfv_dataset  # noqa: E402
from repro.gausstree.bulkload import bulk_load  # noqa: E402
from repro.gausstree.mliq import gausstree_mliq  # noqa: E402
from repro.gausstree.tree import GaussTree  # noqa: E402
from repro.storage.costmodel import DiskCostModel  # noqa: E402
from repro.storage.wal import REC_PAGE, WAL_MAGIC, WriteAheadLog  # noqa: E402

#: The issue's acceptance bar, on the modeled durable-commit ruler.
TARGET_SPEEDUP = 5.0


def _fresh_vectors(rng, n, d, tag):
    return [
        PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(0.05, 0.4, d),
            key=(tag, i),
        )
        for i in range(n)
    ]


def _wal_stats(wal_path: str) -> tuple[int, int, int]:
    """(bytes, committed transactions, page images) in a WAL file."""
    size = max(0, os.path.getsize(wal_path) - len(WAL_MAGIC))
    txns = 0
    pages = 0
    for records, _end in WriteAheadLog.iter_committed(wal_path):
        txns += 1
        pages += sum(1 for rtype, _ in records if rtype == REC_PAGE)
    return size, txns, pages


def _run_mode(base_path, tmp_dir, mode, vectors, query, cost):
    """Insert ``vectors`` into a fresh copy of the base index under one
    commit discipline; verify WAL-only recovery; return the numbers."""
    name, batch = mode
    path = os.path.join(tmp_dir, f"{name}.gauss")
    shutil.copyfile(base_path, path)
    tree = GaussTree.open(path, writable=True, fsync=True)
    n_before = len(tree)
    started = time.perf_counter()
    if batch is None:
        for v in vectors:
            tree.insert(v)
    else:
        for i in range(0, len(vectors), batch):
            tree.insert_many(vectors[i : i + batch])
    seconds = time.perf_counter() - started
    wal_bytes, txns, pages_logged = _wal_stats(path + ".wal")
    # Die without a checkpoint: recovery must replay the WAL alone.
    tree.close(checkpoint=False)
    recovered = GaussTree.open(path)
    assert len(recovered) == n_before + len(vectors), (
        name,
        len(recovered),
        n_before + len(vectors),
    )
    disk_matches, _ = gausstree_mliq(recovered, query)
    recovered.close()

    modeled_commit = cost.commit_seconds(wal_bytes, txns)
    modeled_total = modeled_commit + cost.modeled_cpu_seconds(0, pages_logged)
    n = len(vectors)
    return {
        "commit_discipline": (
            "one txn + fsync per insert"
            if batch is None
            else f"group commit, batch={batch}"
        ),
        "inserts": n,
        "seconds": round(seconds, 4),
        "inserts_per_second": round(n / seconds, 1),
        "wal_bytes": wal_bytes,
        "wal_bytes_per_insert": round(wal_bytes / n, 1),
        "fsyncs": txns,
        "page_images_logged": pages_logged,
        "modeled_commit_seconds": round(modeled_total, 4),
        "modeled_inserts_per_second": round(n / modeled_total, 1),
    }, disk_matches


def _run_sharded_router(db, vectors, d, rng, tmp_dir):
    """Batched writes + interleaved queries through a writable sharded
    session over a 3-shard manifest; returns throughput + sanity info."""
    import repro
    from repro.cluster import build_shards
    from repro.engine import MLIQ

    manifest = build_shards(db, 3, os.path.join(tmp_dir, "router"))
    q = PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.4, d))
    with repro.connect(
        manifest.source_path, backend="sharded", writable=True
    ) as session:
        started = time.perf_counter()
        for i in range(0, len(vectors), 32):
            session.insert_many(vectors[i : i + 32])
            session.execute(MLIQ(q, 3))  # interleaved read
        seconds = time.perf_counter() - started
        total = len(session)
        session.flush()
    with repro.connect(manifest.source_path, backend="sharded") as session:
        assert len(session) == total, (len(session), total)
        reread = session.execute(MLIQ(q, 5))
        assert len(reread.matches) == 5
    return {
        "shards": 3,
        "inserts": len(vectors),
        "interleaved_query_batches": (len(vectors) + 31) // 32,
        "seconds": round(seconds, 4),
        "inserts_per_second": round(len(vectors) / seconds, 1),
        "total_objects_after": total,
    }


def run(n: int, d: int, n_inserts: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    db = uniform_pfv_dataset(n=n, d=d, seed=seed)
    tmp_dir = tempfile.mkdtemp()
    base_path = os.path.join(tmp_dir, "base.gauss")
    tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
    tree.save(base_path)
    cost = DiskCostModel()

    modes = [("per_op", None), ("batch_8", 8), ("batch_32", 32),
             ("batch_128", 128)]
    results: dict[str, dict] = {}
    for mode in modes:
        vectors = _fresh_vectors(rng, n_inserts, d, mode[0])
        query = MLIQuery(
            PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.4, d)), 5
        )
        # Every mode inserts its own fresh vectors into its own copy;
        # the recovered index must answer like an in-memory replay of
        # exactly the same objects.
        results[mode[0]], matches = _run_mode(
            base_path, tmp_dir, mode, vectors, query, cost
        )
        reference = GaussTree(
            dims=d, degree=tree.degree, layout=tree.layout,
            sigma_rule=tree.sigma_rule,
        )
        reference.extend(list(db.vectors) + vectors)
        mem_matches, _ = gausstree_mliq(reference, query)
        assert [m.key for m in mem_matches] == [m.key for m in matches], (
            mode[0]
        )

    speedups = {}
    base = results["per_op"]
    for name in ("batch_8", "batch_32", "batch_128"):
        mode_result = results[name]
        speedups[name] = {
            "measured": round(
                mode_result["inserts_per_second"]
                / base["inserts_per_second"],
                2,
            ),
            "modeled": round(
                mode_result["modeled_inserts_per_second"]
                / base["modeled_inserts_per_second"],
                2,
            ),
            "wal_bytes_ratio": round(
                base["wal_bytes"] / mode_result["wal_bytes"], 2
            ),
            "fsync_ratio": round(
                base["fsyncs"] / mode_result["fsyncs"], 2
            ),
        }

    # The acceptance bar: >= 5x fsync'd insert throughput at batch >= 32
    # on the modeled durable-commit ruler; measured must never regress.
    for name in ("batch_32", "batch_128"):
        assert speedups[name]["modeled"] >= TARGET_SPEEDUP, (
            name,
            speedups[name],
        )
        assert speedups[name]["measured"] >= 0.9, (name, speedups[name])

    router_vectors = _fresh_vectors(rng, n_inserts, d, "router")
    router = _run_sharded_router(db, router_vectors, d, rng, tmp_dir)

    shutil.rmtree(tmp_dir)
    return {
        "workload": {
            "n_objects": n,
            "dims": d,
            "n_inserts_per_mode": n_inserts,
            "seed": seed,
        },
        "environment": environment(with_platform=True),
        "conventions": (
            "modeled_* prices durable commits on the repo's 2006-era "
            "DiskCostModel (sequential WAL transfer + one positioning "
            "delay per fsync barrier + per-page CPU); wall-clock is "
            "reported alongside and is host-bound — a container whose "
            "fsync lands in a write cache hides the barrier cost that "
            "dominates on real durable disks. See docs/benchmarks.md."
        ),
        "per_op": results["per_op"],
        "group_commit": {
            name: results[name]
            for name in ("batch_8", "batch_32", "batch_128")
        },
        "speedup_vs_per_op": speedups,
        "sharded_router": router,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, default=int(os.environ.get("REPRO_BENCH_N", 5000))
    )
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument(
        "--inserts",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_WRITES", 512)),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload (same assertions, smaller sizes)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_writes.json",
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n = min(args.n, 1500)
        args.inserts = min(args.inserts, 256)
    result = run(args.n, args.d, args.inserts, args.seed)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result, indent=2))
    s32 = result["speedup_vs_per_op"]["batch_32"]
    print(
        f"\ngroup commit (batch 32): {s32['modeled']}x modeled fsync'd "
        f"insert throughput vs per-op ({s32['measured']}x measured "
        f"wall-clock on this host, {s32['wal_bytes_ratio']}x fewer WAL "
        f"bytes, {s32['fsync_ratio']}x fewer fsyncs) -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
