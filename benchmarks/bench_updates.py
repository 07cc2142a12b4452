#!/usr/bin/env python
"""Writable-index benchmark: insert throughput, checkpoint, recovery.

Builds and saves a Gauss-tree, reopens it *writable* and measures the
write-ahead path introduced with persistence format v2:

* ``insert_fsync``    — per-commit fsync durability (every completed
  insert survives ``kill -9``); the honest number.
* ``insert_nofsync``  — commits flushed to the OS cache only (recovery
  still correct, the newest tail may be lost on power cut).
* ``checkpoint``      — transferring the committed WAL state into the
  main file (dirty pages + key table + header, fsync-ordered).
* ``recovery``        — reopening an index whose writer died without a
  checkpoint: the WAL replay cost, compared against a clean open.

Sanity is asserted, not assumed: recovered object counts must be exact
and the recovered index must answer an MLIQ identically to an in-memory
tree holding the same objects. Numbers land in ``BENCH_updates.json``.

Run:  PYTHONPATH=src python benchmarks/bench_updates.py
      (REPRO_BENCH_N / REPRO_BENCH_INSERTS shrink or grow the workload)
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


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _fresh_vectors(rng, n, d, tag):
    return [
        PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(0.05, 0.4, d),
            key=(tag, i),
        )
        for i in range(n)
    ]


def run(n: int, d: int, n_inserts: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    db = uniform_pfv_dataset(n=n, d=d, seed=seed)
    tmp_dir = tempfile.mkdtemp()
    base_path = os.path.join(tmp_dir, "base.gauss")
    tree = bulk_load(db.vectors, sigma_rule=db.sigma_rule)
    tree.save(base_path)
    base_bytes = os.path.getsize(base_path)

    # Each mode mutates its own copy of the base index, so neither pays
    # for the other's tree growth and the comparison is apples-to-apples.
    fsync_path = os.path.join(tmp_dir, "fsync.gauss")
    nofsync_path = os.path.join(tmp_dir, "nofsync.gauss")
    shutil.copyfile(base_path, fsync_path)
    shutil.copyfile(base_path, nofsync_path)

    # -- durable (fsync-per-commit) inserts ---------------------------------
    fsync_batch = _fresh_vectors(rng, n_inserts, d, "fsync")
    writable = GaussTree.open(fsync_path, writable=True, fsync=True)
    _, fsync_s = _timed(lambda: [writable.insert(v) for v in fsync_batch])
    _, checkpoint_s = _timed(writable.flush)
    writable.close()

    # -- OS-cache (no fsync) inserts ----------------------------------------
    nofsync_batch = _fresh_vectors(rng, n_inserts, d, "nofsync")
    writable = GaussTree.open(nofsync_path, writable=True, fsync=False)
    _, nofsync_s = _timed(lambda: [writable.insert(v) for v in nofsync_batch])
    wal_bytes_at_close = os.path.getsize(nofsync_path + ".wal")
    # Die without a checkpoint: the WAL alone carries these inserts.
    writable.close(checkpoint=False)

    # -- recovery -----------------------------------------------------------
    recovered, recovery_open_s = _timed(lambda: GaussTree.open(nofsync_path))
    expected = n + n_inserts
    assert len(recovered) == expected, (len(recovered), expected)
    query = MLIQuery(
        PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.4, d)), 5
    )
    disk_matches, _ = gausstree_mliq(recovered, query)
    recovered.close()

    reference = GaussTree(dims=d, degree=tree.degree, layout=tree.layout,
                          sigma_rule=tree.sigma_rule)
    reference.extend(list(db.vectors) + nofsync_batch)
    mem_matches, _ = gausstree_mliq(reference, query)
    assert [m.key for m in mem_matches] == [m.key for m in disk_matches]

    # A clean (checkpointed) open for the recovery comparison.
    _, clean_open_s = _timed(lambda: GaussTree.open(nofsync_path).close())
    final_bytes = os.path.getsize(nofsync_path)
    shutil.rmtree(tmp_dir)
    return {
        "workload": {
            "n_objects": n,
            "dims": d,
            "n_inserts_per_mode": n_inserts,
            "seed": seed,
        },
        "environment": environment(with_platform=True),
        "index": {
            "base_file_bytes": base_bytes,
            "final_file_bytes": final_bytes,
        },
        "insert_fsync": {
            "seconds": round(fsync_s, 4),
            "inserts_per_second": round(n_inserts / fsync_s, 1),
        },
        "insert_nofsync": {
            "seconds": round(nofsync_s, 4),
            "inserts_per_second": round(n_inserts / nofsync_s, 1),
        },
        "checkpoint": {
            "seconds": round(checkpoint_s, 4),
        },
        "recovery": {
            "wal_bytes_replayed": wal_bytes_at_close,
            "recovery_open_seconds": round(recovery_open_s, 4),
            "clean_open_seconds": round(clean_open_s, 4),
            "recovery_overhead_seconds": round(
                recovery_open_s - clean_open_s, 4
            ),
        },
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
        default=int(os.environ.get("REPRO_BENCH_INSERTS", 500)),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_updates.json",
        ),
    )
    args = parser.parse_args(argv)
    result = run(args.n, args.d, args.inserts, args.seed)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result, indent=2))
    print(
        f"\ninserts: {result['insert_fsync']['inserts_per_second']}/s "
        f"fsync'd, {result['insert_nofsync']['inserts_per_second']}/s "
        f"without; recovery replayed "
        f"{result['recovery']['wal_bytes_replayed']} WAL bytes in "
        f"{result['recovery']['recovery_open_seconds']}s -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
