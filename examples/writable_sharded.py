"""Writable sharded serving: route inserts, query while writing.

Walks the write-router lifecycle introduced with group commit:

1. shard-build a dataset into 3 disk shards plus a manifest;
2. open a **writable** sharded session: batched inserts route to their
   owning shards (placement policy) and each shard's slice lands as one
   group-commit WAL transaction, while interleaved queries on the same
   session observe every write immediately (read-your-writes);
3. run a mixed ``execute_many`` batch — ``Insert`` specs between
   ``MLIQ`` queries — and show the answers shifting as the writes land;
4. serve it over HTTP with ``POST /insert`` enabled and a second pooled
   read session, writing through the stdlib client while querying;
5. reopen read-only and verify the grown deployment is durable (counts
   refreshed in the manifest, answers served from the shard indexes).

Run:  PYTHONPATH=src python examples/writable_sharded.py
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.cluster import ServeClient, build_shards, load_manifest  # noqa: E402
from repro.core.pfv import PFV  # noqa: E402
from repro.data.synthetic import uniform_pfv_dataset  # noqa: E402
from repro.engine import MLIQ, Insert, connect  # noqa: E402
from repro.serve import serve_async  # noqa: E402


def main() -> int:
    d = 6
    db = uniform_pfv_dataset(n=900, d=d, seed=44)
    rng = np.random.default_rng(45)
    tmp_dir = tempfile.mkdtemp()
    try:
        # -- 1. shard-build ---------------------------------------------------
        manifest = build_shards(db, 3, os.path.join(tmp_dir, "live"))
        sizes = [s.objects for s in manifest.shards]
        print(
            f"sharded n={len(db)} into {sizes} (policy={manifest.policy}, "
            f"placement epoch {manifest.effective_placement_epoch})"
        )

        fresh = [
            PFV(
                rng.uniform(0.0, 1.0, d),
                rng.uniform(0.05, 0.4, d),
                key=("live", i),
            )
            for i in range(96)
        ]
        # A sharply observed object: a re-observation of itself is its
        # own best match once (and only once) the insert landed.
        fresh[0] = PFV(rng.uniform(0.0, 1.0, d), np.full(d, 0.02),
                       key=("live", 0))
        probe = MLIQ(fresh[0], 3)

        # -- 2 + 3. the write router ------------------------------------------
        with connect(
            manifest.source_path, backend="sharded", writable=True
        ) as session:
            print(f"\nwritable session: {session!r}")
            before = [m.key for m in session.execute(probe).matches]
            session.insert_many(fresh[:64])  # routed, group-committed
            after = [m.key for m in session.execute(probe).matches]
            print(f"top-3 before the batch: {before}")
            print(f"top-3 after 64 routed inserts: {after}")
            assert after[0] == ("live", 0), "the write must be queryable"

            # Interleaved batch: the second query sees the Insert that
            # precedes it in the batch, the first does not.
            target = PFV(
                rng.uniform(0.0, 1.0, d),
                np.full(d, 0.02),
                key="bullseye",
            )
            rs = session.execute_many(
                [MLIQ(target, 1), Insert(target), MLIQ(target, 1)]
            )
            print(
                "interleaved batch: before-insert answer "
                f"{[m.key for m in rs[0]]}, after-insert answer "
                f"{[m.key for m in rs[2]]}"
            )
            assert [m.key for m in rs[2]] == ["bullseye"]
            total = len(session)

        refreshed = load_manifest(manifest.source_path)
        print(
            f"manifest refreshed on commit: counts "
            f"{[s.objects for s in refreshed.shards]}, epoch "
            f"{refreshed.effective_placement_epoch}"
        )

        # -- 4. HTTP serving with writes --------------------------------------
        primary = connect(
            manifest.source_path, backend="sharded", writable=True
        )
        read_replica = lambda: connect(  # noqa: E731
            manifest.source_path, backend="sharded"
        )
        with serve_async(
            primary, port=0, session_factory=read_replica, pool_size=2
        ) as server:
            client = ServeClient(server.url)
            reply = client.insert(fresh[64:])
            print(
                f"\nPOST /insert: {reply['inserted']} vectors in "
                f"{reply['execute_seconds'] * 1e3:.1f} ms, server now "
                f"holds {reply['objects']} objects"
            )
            answer = client.query([MLIQ(fresh[64], 3)])
            print(f"queried while writing: top keys {answer.keys()[0]}")
            pool = client.stats()["session_pool"]
            print(
                f"session pool: size={pool['size']}, "
                f"acquires={pool['acquires']}, waits={pool['waits']}"
            )
            total = reply["objects"]
        primary.close()

        # -- 5. durability ----------------------------------------------------
        with connect(manifest.source_path, backend="sharded") as session:
            assert len(session) == total, (len(session), total)
            answer = session.execute(probe)
            print(
                f"\nreopened read-only: {len(session)} objects, probe "
                f"answers {[m.key for m in answer.matches]}"
            )
    finally:
        shutil.rmtree(tmp_dir)
    print("\nwritable sharded round trip complete.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
