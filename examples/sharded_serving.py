"""Sharded serving, end to end: shard-build -> fan-out session -> server.

Walks the full ``repro.cluster`` lifecycle on a synthetic dataset:

1. partition the database into 3 shards and save one Gauss-tree index
   per shard plus the ``.shards.json`` manifest (what
   ``repro shard-build`` does);
2. connect a ``backend="sharded"`` session to the manifest and show
   that the fanned-out answers carry *globally* renormalised posteriors
   — identical to a sequential scan of the whole database, even though
   no single shard ever saw all of it;
3. serve the session (what ``repro serve`` does) and query it over
   HTTP with the stdlib client.

Run:  PYTHONPATH=src python examples/sharded_serving.py
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cluster import ServeClient, build_shards  # noqa: E402
from repro.data.synthetic import uniform_pfv_dataset  # noqa: E402
from repro.data.workload import identification_workload  # noqa: E402
from repro.engine import MLIQ, TIQ, connect  # noqa: E402
from repro.serve import serve_async  # noqa: E402


def main() -> int:
    db = uniform_pfv_dataset(n=1200, d=6, seed=42)
    workload = identification_workload(db, 5, seed=43)
    tmp_dir = tempfile.mkdtemp()
    try:
        # -- 1. shard-build ---------------------------------------------------
        manifest = build_shards(db, 3, os.path.join(tmp_dir, "demo"))
        sizes = [s.objects for s in manifest.shards]
        print(f"sharded n={len(db)} into {sizes} (policy={manifest.policy})")
        print(f"manifest: {os.path.basename(manifest.source_path)}\n")

        # -- 2. fan-out session ----------------------------------------------
        with connect(db, backend="seqscan") as scan, connect(
            manifest.source_path, backend="sharded"
        ) as sharded:
            spec = MLIQ(workload[0].q, 5)
            print(sharded.explain(spec).describe())
            local = scan.execute(spec).matches
            fanned = sharded.execute(spec).matches
            print("\nglobal posteriors survive the shard merge:")
            for a, b in zip(local, fanned):
                agreement = abs(a.probability - b.probability)
                print(
                    f"  key={b.key!r}: sharded {b.probability:.6f} "
                    f"vs scan {a.probability:.6f} (|diff|={agreement:.1e})"
                )
                assert a.key == b.key and agreement < 1e-9

            # -- 3. HTTP serving ---------------------------------------------
            with serve_async(sharded, port=0) as server:
                client = ServeClient(server.url)
                health = client.healthz()
                print(
                    f"\nserving {health['backend']} "
                    f"({health['objects']} objects) at {server.url}"
                )
                answer = client.query(
                    [MLIQ(w.q, 3) for w in workload]
                    + [TIQ(workload[0].q, 0.2)]
                )
                hits = sum(
                    1
                    for w, keys in zip(workload, answer.keys())
                    if keys and keys[0] == w.true_key
                )
                print(
                    f"served {len(answer.results)} queries over HTTP in "
                    f"{answer.execute_seconds * 1e3:.1f} ms "
                    f"(top-1 hit rate {hits}/{len(workload)})"
                )
                for entry in answer.provenance:
                    print(
                        f"  {entry['shard']}: {entry['pages_accessed']} "
                        f"pages, {entry['objects_refined']} refinements"
                    )
                print(f"server stats: {client.stats()['queries']} queries")
    finally:
        shutil.rmtree(tmp_dir)
    print("\nsharded serving round trip complete.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
