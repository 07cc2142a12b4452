#!/usr/bin/env python
"""Sharded serving benchmark: 1 vs N shards on the wall clock.

Shard-builds one synthetic dataset twice (a single-shard manifest as the
unsharded baseline and an N-shard manifest), then answers the same
64-query MLIQ batch through both deployments:

* ``single_shard`` — one shard, i.e. plain disk serving behind the
  sharded backend;
* ``sharded``      — N shards, fanned out one after another and merged
  against the global Bayes denominator.

Each configuration reports the median measured wall time of its timed
batches on *this* host (``environment`` records the core count and the
library versions) and the pages its shards read. The comparison shows
what splitting one index into N does to a batch: N smaller trees to
answer it (each one traversed or swept, by its shape) and a merge,
instead of one tree.

Writes ``BENCH_cluster.json``; exits 1 if the two configurations
disagree on answers.

Run:  PYTHONPATH=src python benchmarks/bench_cluster.py
      (--smoke shrinks the workload for CI)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)


from _bench import environment  # noqa: E402
from repro.cluster import build_shards  # noqa: E402
from repro.data.synthetic import uniform_pfv_dataset  # noqa: E402
from repro.data.workload import identification_workload  # noqa: E402
from repro.engine import MLIQ, connect  # noqa: E402


def _run_config(manifest_path: str, specs, *, repeats: int) -> dict:
    session = connect(manifest_path, backend="sharded")
    # One warmup batch opens the shard sessions and warms their page
    # buffers, so the timed runs measure serving, not cold start.
    warmup = session.execute_many(specs)
    wall_times = []
    last = None
    for _ in range(repeats):
        started = time.perf_counter()
        last = session.execute_many(specs)
        wall_times.append(time.perf_counter() - started)
    wall = statistics.median(wall_times)
    answers = [[m.key for m in matches] for matches in last]
    session.close()
    return {
        "shards": len(last.provenance),
        "backend": warmup.backend,
        "wall_seconds_per_batch": round(wall, 4),
        "wall_seconds_per_batch_runs": [round(t, 4) for t in wall_times],
        "wall_queries_per_second": round(len(specs) / wall, 1),
        "pages_accessed": last.stats.pages_accessed,
        "_answers": answers,
    }


def run(
    n: int, d: int, n_queries: int, k: int, shards: int, seed: int,
    repeats: int,
) -> dict:
    db = uniform_pfv_dataset(n=n, d=d, seed=seed)
    workload = identification_workload(db, n_queries, seed=seed + 1)
    specs = [MLIQ(w.q, k) for w in workload]

    tmp_dir = tempfile.mkdtemp()
    try:
        started = time.perf_counter()
        single = build_shards(db, 1, os.path.join(tmp_dir, "single"))
        multi = build_shards(db, shards, os.path.join(tmp_dir, "multi"))
        build_s = time.perf_counter() - started

        configs = {
            "single_shard": _run_config(
                single.source_path, specs, repeats=repeats
            ),
            "sharded": _run_config(multi.source_path, specs, repeats=repeats),
        }
    finally:
        shutil.rmtree(tmp_dir)

    answers_agree = (
        configs["single_shard"].pop("_answers")
        == configs["sharded"].pop("_answers")
    )
    single_wall = configs["single_shard"]["wall_seconds_per_batch"]
    sharded_wall = configs["sharded"]["wall_seconds_per_batch"]
    return {
        "headline": {
            "single_shard_wall_queries_per_second": configs["single_shard"][
                "wall_queries_per_second"
            ],
            "sharded_wall_queries_per_second": configs["sharded"][
                "wall_queries_per_second"
            ],
            # Above 1 the N-shard fan-out answers the batch faster than
            # one index over the same data.
            "wall_sharded_vs_single_shard": round(
                single_wall / sharded_wall, 3
            ),
        },
        "workload": {
            "n_objects": n,
            "dims": d,
            "batch_queries": n_queries,
            "k": k,
            "shards": shards,
            "seed": seed,
            "repeats": repeats,
            "shard_build_seconds": round(build_s, 3),
            "shard_objects": [s.objects for s in multi.shards],
        },
        "environment": environment(
            "wall_seconds_per_batch is the median of the timed "
            "batches after one warmup batch; the sharded backend "
            "fans a batch out to its shards one after another in "
            "the calling thread"
        ),
        "configs": configs,
        "answers_agree_across_configs": answers_agree,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, default=int(os.environ.get("REPRO_BENCH_N", 20000))
    )
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload (n=2000, one repeat)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_cluster.json",
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n = min(args.n, 2000)
        args.repeats = 1
    result = run(
        args.n, args.d, args.queries, args.k, args.shards, args.seed,
        args.repeats,
    )
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result, indent=2))
    if not result["answers_agree_across_configs"]:
        print(
            "FAIL: the sharded deployment answered differently from the "
            "single shard",
            file=sys.stderr,
        )
        return 1
    headline = result["headline"]
    print(
        f"\nwall clock on {os.cpu_count()} core(s): single shard "
        f"{headline['single_shard_wall_queries_per_second']} qps, "
        f"{args.shards} shards "
        f"{headline['sharded_wall_queries_per_second']} qps "
        f"({headline['wall_sharded_vs_single_shard']}x) -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
