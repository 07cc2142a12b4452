"""The benchmark's three workloads, each checked against an oracle.

* ``identify-disk`` — singleton MLIQs in-process on a disk Gauss-tree:
  the tree's own layers do the work (traversal, hull bounds, leaf
  refinement, page fetch and decode).
* ``identify-sharded`` — singleton MLIQs from two pipelined JSONL
  connections into ``repro serve --async`` over 8 hash-placed shards:
  wire, admission, full coalesced batches and the 8-way fan-out carry
  the cost.
* ``reid-churn`` — identify (``ConsensusTopK``) then insert, with
  sliding-window deletes, in-process on a writable 2-shard session:
  ranked rescoring over the fan-out, write routing, WAL commits.

Each workload runs a fixed number of operations derived from the run
length (see ``RATES``), so sample counts, page counts and the WAL
footprint repeat exactly for a seed. Every timed interval (set-up,
operation, leg) is converted to nominal-host seconds by a
:class:`_harness.HostProbe` running on the same CPU. Layers are measured
from outside only: identify-disk wraps public functions
(:class:`_harness.LayerClock`); the others read the spans, ``stats`` and
metrics the program already emits (reid-churn through the program's
tracer and its process-global registry, identify-sharded through the
server's responses and ``/metrics``). Per-layer times are wall-clock. A
traced run plays the workload twice — untraced, then traced — so the
trace overhead is measured inside one run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

import _harness as h
from repro.cluster.partition import build_shards, load_manifest
from repro.cluster.wire import match_to_json, spec_to_json
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.data.synthetic import uniform_pfv_dataset
from repro.data.workload import identification_workload
from repro.engine import MLIQ, ConsensusTopK, connect
from repro.gausstree.bulkload import bulk_load
from repro.gausstree.persist import read_header
from repro.obs.metrics import get_global_registry
from repro.obs.trace import Trace, tracing

#: Measured operations a run plays per second of its length: about the
#: rate each workload sustains in nominal-host time.
RATES = {"identify-disk": 35.0, "identify-sharded": 180.0, "reid-churn": 245.0}

#: What a WAL fsync counts in reid-churn's throughput, whatever the disk
#: took: about its median on the calibration host. The disk is shared
#: with other tenants, and its mean fsync ranged 0.3-1.2 ms between runs
#: of the same code; the number of fsyncs is the program's, and the
#: bytes it writes show in ``disk_mb``.
FSYNC_NOMINAL_S = 4e-4

#: Pipelined requests per identify-sharded connection. Two connections
#: keep 32 requests in flight, twice the server's default coalescing
#: batch of 16, so a full batch is always queued when the session frees
#: and no batch waits out the straggler window. With fewer in flight, a
#: batch's size depends on whether re-sent requests land inside that
#: 2 ms window, which made the latency tail bimodal.
SHARDED_DEPTH = 16

#: The per-layer metrics each workload measures (its path); every other
#: declared per-layer metric reads 0 on it.
_FANOUT = (
    "engine.execute_ms",
    "cluster.fanout_ms",
    "cluster.fanout_self_ms",
    "cluster.shard_ms_max",
    "cluster.shards_touched",
    "cluster.pages_per_shard",
)
_COUNTS = (
    "gausstree.pages_per_query",
    "gausstree.nodes_expanded_per_query",
    "gausstree.objects_refined_per_query",
    "gausstree.page_prune_ratio",
    "storage.buffer_hit_ratio",
)
_OBS = ("obs.trace_overhead", "obs.span_violations")
ON_PATH = {
    "identify-disk": frozenset((
        "gausstree.query_ms",
        "gausstree.bounds_ms",
        "gausstree.refine_ms",
        "gausstree.traverse_self_ms",
        "storage.page_read_ms",
        "storage.page_decode_ms",
        "storage.setup_decode_ms",
        "engine.execute_ms",
        "baselines.seqscan_ms",
        *_COUNTS,
        *_OBS,
    )),
    "identify-sharded": frozenset((
        *_FANOUT,
        *_COUNTS,
        *_OBS,
        "serve.wire_ms",
        "serve.admission_wait_ms",
        "serve.execute_ms",
        "serve.read_batch_mean",
        "serve.queue_depth_peak",
        "serve.shed_total",
        "baselines.seqscan_ms",
    )),
    "reid-churn": frozenset((
        *_FANOUT,
        *_COUNTS,
        *_OBS,
        "storage.wal_commits_per_write",
        "storage.fsyncs_per_write",
        "storage.fsync_ms",
        "storage.group_pages_mean",
        "engine.write_p50_ms",
        "engine.write_p95_ms",
    )),
}

#: Distinct identification queries a run draws; longer runs cycle them,
#: which keeps the oracle's cost bounded.
QUERY_POOL = 450

#: Largest posterior (or consensus score) difference from the oracle
#: that still counts as the same answer. Not 1e-9: once its queue is
#: drained, the Gauss-tree still folds half of its bound-sum drift
#: allowance (up to 1e-6 of the denominator) into the reported
#: posterior, so tree posteriors sit up to ~1e-7 off the exact scan.
TOLERANCE = 1e-6

_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass(frozen=True)
class Run:
    """One invocation's settings."""

    seed: int
    ops: int  # measured operations per leg
    setups: int  # set-ups timed; setup_s is their median
    traced: bool
    smoke: bool
    src: str  # the program's source tree
    work: str  # scratch directory inside the checkout


@dataclasses.dataclass
class Outcome:
    """What a workload measured, plus its correctness tally."""

    headline: dict[str, float]
    layers: dict[str, float] | None
    attempted: int
    failed: int
    detail: dict


def seeds(seed: int) -> tuple[int, int]:
    """The dataset seed and the load seed derived from ``--seed``."""
    data, load = np.random.SeedSequence(seed).generate_state(2)
    return int(data), int(load)


def _wire_key(key):
    return json.loads(json.dumps(key))


def same_answer(got: list[dict], want) -> bool:
    """Served (wire-shaped) matches equal the oracle's: same keys in the
    same order, posteriors and scores within :data:`TOLERANCE`."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if _wire_key(g["key"]) != _wire_key(w.key):
            return False
        if not abs(g["probability"] - w.probability) <= TOLERANCE:
            return False
        score = g.get("score", np.inf)
        if w.score is not None and not abs(score - w.score) <= TOLERANCE:
            return False
    return True


def _fresh_dir(run: Run, name: str) -> str:
    path = os.path.join(run.work, name)
    os.makedirs(path)
    return path


def _stat_sums(weighted_stats) -> dict[str, float]:
    """Work counters summed over ``(stats mapping, share)`` pairs. A
    served response carries its coalesced batch's merged stats, so each
    member contributes ``1 / coalesced`` of them."""
    sums = dict.fromkeys(
        ("pages_accessed", "page_faults", "nodes_expanded", "objects_refined"),
        0.0,
    )
    for stats, share in weighted_stats:
        for key in sums:
            sums[key] += stats[key] * share
    return sums


def _response_stats(responses):
    return [(resp["stats"], 1.0 / resp.get("coalesced", 1)) for resp in responses]


def _count_layers(sums: dict[str, float], queries: int, node_pages: int) -> dict:
    pages = h.ratio(sums["pages_accessed"], queries)
    return {
        "gausstree.pages_per_query": pages,
        "gausstree.nodes_expanded_per_query": h.ratio(
            sums["nodes_expanded"], queries
        ),
        "gausstree.objects_refined_per_query": h.ratio(
            sums["objects_refined"], queries
        ),
        "gausstree.page_prune_ratio": 1.0 - h.ratio(pages, node_pages),
        "storage.buffer_hit_ratio": 1.0
        - h.ratio(sums["page_faults"], sums["pages_accessed"]),
    }


@dataclasses.dataclass
class Leg:
    """One measured pass: per identify, when it was sent and its
    wall-clock latency; per write, the same; the WAL fsyncs, if it
    wrote; and when the pass ended."""

    began: float
    started: list[float] = dataclasses.field(default_factory=list)
    latencies: list[float] = dataclasses.field(default_factory=list)
    writes: list = dataclasses.field(default_factory=list)  # (started, lat, out)
    fsync: tuple[float, float] | None = None  # (seconds, calls)
    ended: float = 0.0

    def identify(self, started: float, latency: float) -> None:
        self.started.append(started)
        self.latencies.append(latency)

    def busy_seconds(self, probe: h.HostProbe) -> float:
        """Nominal-host seconds of the pass, with every WAL fsync
        counted as :data:`FSYNC_NOMINAL_S` instead of what the disk
        took."""
        busy = probe.seconds(self.began, self.ended)
        if self.fsync is not None:
            seconds, calls = self.fsync
            wall = self.ended - self.began
            busy += calls * FSYNC_NOMINAL_S - seconds * busy / wall
        return busy

    def qps(self, probe: h.HostProbe) -> float:
        """Identifies per nominal-host second over the whole pass."""
        return len(self.latencies) / self.busy_seconds(probe)

    def timing(self, probe: h.HostProbe) -> tuple[dict, dict]:
        """The headline timings, in nominal-host time, and the
        wall-clock ones reported alongside. Percentiles are over every
        identify; the median is scaled at the core's speed, the tail at
        the speed the slowest operations see."""
        def scaled(pairs, tail=False):
            convert = probe.tail_seconds if tail else probe.seconds
            return [convert(t, t + lat) for t, lat in pairs]

        pairs = list(zip(self.started, self.latencies))
        identify = scaled(pairs)
        identify_tail = scaled(pairs, tail=True)
        headline = {
            "identify_qps": self.qps(probe),
            "identify_p50_ms": 1e3 * h.percentile(identify, 0.50),
            "identify_p95_ms": 1e3 * h.percentile(identify_tail, 0.95),
        }
        detail = {
            "identify_p99_ms": 1e3 * h.percentile(identify_tail, 0.99),
            "identify_samples": len(identify),
            "wall_clock": {
                "identify_qps": len(identify) / (self.ended - self.began),
                "identify_p50_ms": 1e3 * h.percentile(self.latencies, 0.50),
                "identify_p95_ms": 1e3 * h.percentile(self.latencies, 0.95),
            },
            "probe_samples": probe.samples(),
        }
        if self.writes:
            write = [(t, lat) for t, lat, _ in self.writes]
            detail["write_p50_ms"] = 1e3 * h.percentile(scaled(write), 0.50)
            detail["write_p95_ms"] = 1e3 * h.percentile(
                scaled(write, tail=True), 0.95
            )
            detail["wall_clock"]["write_p50_ms"] = 1e3 * h.percentile(
                [lat for _, lat in write], 0.50
            )
            detail["wall_clock"]["write_p95_ms"] = 1e3 * h.percentile(
                [lat for _, lat in write], 0.95
            )
        if self.fsync is not None:
            detail["wall_clock"]["fsync_ms"] = 1e3 * h.ratio(*self.fsync)
        return headline, detail


def _headline(probe, leg, setups, peak_rss_mb, disk_mb):
    """Every end-to-end metric, plus the detail behind it. ``setups``
    are the ``(started, finished)`` intervals of the timed set-ups;
    ``setup_s`` is their median in nominal-host seconds."""
    timing, detail = leg.timing(probe)
    setup_s = [probe.seconds(a, b) for a, b in setups]
    detail["setup_s_samples"] = setup_s
    detail["wall_clock"]["setup_s_samples"] = [b - a for a, b in setups]
    return {
        "setup_s": h.percentile(setup_s, 0.5),
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "disk_mb": disk_mb,
    }, detail


def _identify_specs(db, k, warmup, ops, load_seed):
    """Warm-up specs, the distinct measured specs, and the ``ops``
    measured specs cycling through them."""
    specs = [
        MLIQ(w.q, k)
        for w in identification_workload(
            db, warmup + min(ops, QUERY_POOL), seed=load_seed
        )
    ]
    distinct = specs[warmup:]
    measured = [distinct[i % len(distinct)] for i in range(ops)]
    return specs[:warmup], distinct, measured


def _scan_oracle(scan, distinct, measured, timed: bool):
    """The sequential scan's answer to every measured spec. ``timed``
    runs singleton scans and returns their latencies (the access path
    the tree must beat); otherwise one batch."""
    latencies = []
    if timed:
        answers = []
        for spec in distinct:
            started = time.perf_counter()
            answers.append(scan.execute(spec).matches)
            latencies.append(time.perf_counter() - started)
    else:
        answers = list(scan.execute_many(distinct))
    return [answers[i % len(answers)] for i in range(len(measured))], latencies


# -- identify-disk -------------------------------------------------------------


def build_disk_index(path: str, n: int, d: int, seed: int) -> None:
    """Bulk-load and save the identify-disk index (runs in a child
    process, so the build's memory peak stays out of the measured
    process's ``VmHWM``)."""
    db = uniform_pfv_dataset(n=n, d=d, seed=seed)
    bulk_load(db.vectors, sigma_rule=db.sigma_rule).save(path)


def _build_in_child(run: Run, path: str, n: int, d: int, seed: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((run.src, _HERE)))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import workloads; workloads.build_disk_index"
            f"({path!r}, {n}, {d}, {seed})",
        ],
        env=env,
        check=True,
    )


def wrap_tree_layers(clock: h.LayerClock) -> None:
    """Time the in-process layers at the modules that look them up."""
    from repro.engine import session
    from repro.gausstree import batch, mliq, persist, search
    from repro.storage.filestore import FilePageStore

    clock.wrap(session.Session, "execute", "engine")
    clock.wrap(batch, "gausstree_mliq_many", "query")
    clock.wrap(mliq, "gausstree_mliq", "query")
    clock.wrap(search, "node_log_bounds", "bounds")
    clock.wrap(search, "node_log_bounds_batch", "bounds")
    clock.wrap(batch.BatchRefiner, "child_log_bounds", "bounds")
    clock.wrap(search, "log_joint_density_batch", "refine")
    clock.wrap(batch.BatchRefiner, "leaf_extras", "refine")
    clock.wrap(batch.BatchRefiner, "leaf_log_densities", "refine")
    clock.wrap(FilePageStore, "read", "read")
    clock.wrap(FilePageStore, "fetch_page", "read")
    for name in (
        "decode_columnar_leaf_page",
        "decode_inner_page",
        "decode_leaf_page",
    ):
        clock.wrap(persist, name, "decode")


@dataclasses.dataclass
class _InProcessLeg(Leg):
    results: list = dataclasses.field(default_factory=list)  # ResultSets
    traces: list = dataclasses.field(default_factory=list)  # span trees


def _play_in_process(session, specs, *, traced: bool) -> _InProcessLeg:
    """One caller, one query at a time."""
    leg = _InProcessLeg(began=time.perf_counter())
    for spec in specs:
        started = time.perf_counter()
        if traced:
            trace = Trace()
            with tracing(trace):
                rs = session.execute(spec)
            leg.traces.append(trace.to_dict())
        else:
            rs = session.execute(spec)
        leg.identify(started, time.perf_counter() - started)
        leg.results.append(rs)
    leg.ended = time.perf_counter()
    return leg


def identify_disk(run: Run) -> Outcome:
    n, d, k, warmup = (1500, 10, 5, 4) if run.smoke else (20000, 10, 5, 16)
    data_seed, load_seed = seeds(run.seed)
    db = uniform_pfv_dataset(n=n, d=d, seed=data_seed)
    warm, distinct, measured = _identify_specs(db, k, warmup, run.ops, load_seed)
    del db  # regenerated for the oracle once VmHWM has been read

    clock = h.LayerClock()
    if run.traced:  # wrapped from the start: decoding happens in set-up
        wrap_tree_layers(clock)
    session = None
    setups = []  # (started, finished)
    probe = h.HostProbe()
    try:
        for i in range(run.setups):
            if session is not None:
                session.close()
            path = os.path.join(_fresh_dir(run, f"setup-{i}"), "index.gauss")
            started = time.perf_counter()
            _build_in_child(run, path, n, d, data_seed)
            session = connect(path)
            for spec in warm:
                session.execute(spec)
            setups.append((started, time.perf_counter()))
        setup_decode_s = clock.self_seconds("decode")
        clock.restore()

        legs = [_play_in_process(session, measured, traced=False)]
        if run.traced:
            wrap_tree_layers(clock)
            clock.reset()
            legs.append(_play_in_process(session, measured, traced=True))
            clock.restore()
        peak_rss_mb = h.vm_hwm_mb()
        disk_mb = h.dir_mb(os.path.dirname(path))
        node_pages = read_header(path)["page_count"]
    finally:
        clock.restore()
        if session is not None:
            session.close()
        probe.stop()

    scan = connect(
        uniform_pfv_dataset(n=n, d=d, seed=data_seed), backend="seqscan"
    )
    expected, scan_latencies = _scan_oracle(scan, distinct, measured, run.traced)
    failed = sum(
        not same_answer([match_to_json(m) for m in rs.matches], want)
        for leg in legs
        for rs, want in zip(leg.results, expected)
    )

    headline, detail = _headline(probe, legs[0], setups, peak_rss_mb, disk_mb)
    detail["index_node_pages"] = node_pages
    layers = None
    if run.traced:
        traced = legs[1]
        per_query = 1e3 / len(measured)
        ms = {
            layer: clock.self_seconds(layer) * per_query
            for layer in ("engine", "query", "bounds", "refine", "read", "decode")
        }
        # Every wrapped call of the traced pass runs inside Session.execute
        # and every tree-layer call inside a query, so self times nest:
        # query = traversal + bounds + refine + read + decode exactly, and
        # execute = query + the engine's own share.
        query = sum(
            ms[layer] for layer in ("query", "bounds", "refine", "read", "decode")
        )
        sums = _stat_sums(
            (dataclasses.asdict(rs.stats), 1.0) for rs in traced.results
        )
        layers = {
            "gausstree.query_ms": query,
            "gausstree.bounds_ms": ms["bounds"],
            "gausstree.refine_ms": ms["refine"],
            # The traversal's own Python: heap, bound sums, per-node work.
            "gausstree.traverse_self_ms": ms["query"],
            "storage.page_read_ms": ms["read"],
            "storage.page_decode_ms": ms["decode"],
            "storage.setup_decode_ms": 1e3 * setup_decode_s,
            "engine.execute_ms": query + ms["engine"],
            **_count_layers(sums, len(measured), node_pages),
            "baselines.seqscan_ms": 1e3 * h.percentile(scan_latencies, 0.5),
            "obs.trace_overhead": 1.0 - traced.qps(probe) / headline["identify_qps"],
            "obs.span_violations": sum(
                h.span_violations(root)
                for trace in traced.traces
                for root in trace["spans"]
            ),
        }
        detail["query_share_of_execute"] = h.ratio(
            query, layers["engine.execute_ms"]
        )
        detail["calls"] = clock.calls()
    return Outcome(
        headline, layers, len(measured) * len(legs), failed, detail
    )


# -- sharded deployments: spans, metrics, served set-up ------------------------


@dataclasses.dataclass
class _ServedLeg(Leg):
    responses: list = dataclasses.field(default_factory=list)  # identify replies


def _p50_ms(values) -> float:
    return 1e3 * h.percentile(values, 0.5)


def _fanout_layers(executes) -> dict[str, float]:
    """Engine and fan-out times from the coordinator's traced
    ``session.execute`` spans (a served one may run a coalesced batch
    of ``count`` queries).

    In the serial pool every synthesized ``shard`` span carries the
    whole ``cluster.fanout`` interval; each shard's real work is the
    sibling ``session.execute`` span, in shard order — so per-shard
    time comes from those siblings.
    """
    fanout, fanout_self, shard_max, touched, shard_pages = [], [], [], [], []
    for execute in executes:
        width = execute.get("count", 1)
        for span in h.walk(execute):
            if span["name"] != "cluster.fanout":
                continue
            kids = span.get("children", ())
            shards = [c for c in kids if c["name"] == "shard"]
            work = [c for c in kids if c["name"] == "session.execute"]
            fanout.append(span["dur"])
            fanout_self.append(h.self_time(span, work))
            shard_max.append(max((c["dur"] for c in work), default=0.0))
            touched.append(len(shards))
            shard_pages.extend(c.get("pages", 0) / width for c in shards)
    return {
        "engine.execute_ms": _p50_ms([e["dur"] for e in executes]),
        "cluster.fanout_ms": _p50_ms(fanout),
        "cluster.fanout_self_ms": _p50_ms(fanout_self),
        "cluster.shard_ms_max": _p50_ms(shard_max),
        "cluster.shards_touched": h.mean(touched),
        "cluster.pages_per_shard": h.mean(shard_pages),
    }


def _served_span_layers(reads) -> dict[str, float]:
    """Per-layer times from traced responses: ``reads`` are
    ``(client_latency_s, response)`` pairs."""
    wire, admission, serve_exec, executes = [], [], [], []
    violations = 0
    for latency, resp in reads:
        (root,) = resp["trace"]["spans"]
        violations += h.span_violations(root)
        wire.append(latency - root["dur"])
        for child in root.get("children", ()):
            if child["name"] == "admission.wait":
                admission.append(child["dur"])
            elif child["name"] == "serve.execute":
                serve_exec.append(child["dur"])
                executes.extend(
                    grand
                    for grand in child.get("children", ())
                    if grand["name"] == "session.execute"
                )
    return {
        "serve.wire_ms": _p50_ms(wire),
        "serve.admission_wait_ms": _p50_ms(admission),
        "serve.execute_ms": _p50_ms(serve_exec),
        **_fanout_layers(executes),
        "obs.span_violations": violations,
    }


def _read_metric_layers(before: dict, after: dict) -> dict[str, float]:
    """Serving counters from two ``/metrics`` scrapes around a leg."""
    def grew(name: str) -> float:
        return h.delta(after, before, name)

    return {
        "serve.read_batch_mean": h.ratio(
            grew("repro_serve_queries_total"),
            grew("repro_serve_read_batches_total"),
        ),
        "serve.queue_depth_peak": h.family_total(
            after, "repro_serve_queue_depth_peak"
        ),
        "serve.shed_total": grew("repro_serve_shed_total"),
    }


def _scrape_registry() -> dict[str, float]:
    """This process's global metrics registry (WAL, cluster and buffer
    series), as a ``/metrics`` scrape would show it."""
    return h.parse_exposition(get_global_registry().render())


def _wal_layers(before: dict, after: dict, writes: int) -> dict[str, float]:
    """WAL counters from two registry scrapes around a leg."""
    def grew(name: str) -> float:
        return h.delta(after, before, name)

    return {
        "storage.wal_commits_per_write": h.ratio(
            grew("repro_wal_commits_total"), writes
        ),
        "storage.fsyncs_per_write": h.ratio(grew("repro_wal_fsync_total"), writes),
        "storage.fsync_ms": 1e3
        * h.ratio(
            grew("repro_wal_fsync_seconds_sum"),
            grew("repro_wal_fsync_seconds_count"),
        ),
        "storage.group_pages_mean": h.ratio(
            grew("repro_wal_group_pages_sum"), grew("repro_wal_group_pages_count")
        ),
    }


def _node_pages(manifest_path: str) -> int:
    """Node pages over all shards, from the manifest as it is on disk
    now (a writable deployment creates shards that started empty)."""
    return sum(
        read_header(path)["page_count"]
        for path in load_manifest(manifest_path).shard_paths()
        if path is not None
    )


def _start_served(run: Run, build, warm_specs):
    """Time ``run.setups`` set-ups (build the deployment, start the
    server, answer the warm-up); returns the last deployment's
    directory, manifest and still-running server plus each set-up's
    ``(started, finished)``."""
    server = None
    setups = []
    try:
        for i in range(run.setups):
            if server is not None:
                server.stop()
            directory = _fresh_dir(run, f"setup-{i}")
            started = time.perf_counter()
            manifest = build(directory)
            server = h.ServerProcess([manifest.source_path], src=run.src)
            with h.client(server.address) as conn:
                for spec in warm_specs:
                    resp = conn.query([spec])
                    if resp.get("status") != 200:
                        raise RuntimeError(f"warm-up query failed: {resp}")
            setups.append((started, time.perf_counter()))
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return directory, manifest, server, setups


# -- identify-sharded ----------------------------------------------------------


def identify_sharded(run: Run) -> Outcome:
    n, d, k, warmup = (1200, 6, 5, 4) if run.smoke else (16000, 6, 5, 16)
    shards, clients = 8, 2
    data_seed, load_seed = seeds(run.seed)
    db = uniform_pfv_dataset(n=n, d=d, seed=data_seed)
    warm, distinct, measured = _identify_specs(db, k, warmup, run.ops, load_seed)
    requests = [{"op": "query", "queries": [spec_to_json(s)]} for s in measured]

    def play(batch) -> _ServedLeg:
        results, began = h.closed_loop(
            server.address, batch, clients=clients, depth=SHARDED_DEPTH
        )
        leg = _ServedLeg(began=began, ended=max(done for _, done, _ in results))
        for lat, done, resp in results:
            leg.identify(done - lat, lat)
            leg.responses.append(resp)
        return leg

    probe = h.HostProbe()
    server = None
    try:
        directory, manifest, server, setups = _start_served(
            run,
            # The library's default placement: what a locality-aware
            # placement change would move.
            lambda where: build_shards(db, shards, os.path.join(where, "ds")),
            warm,
        )
        legs = [play(requests)]
        if run.traced:
            before = h.scrape(server.address)
            legs.append(play([dict(r, trace=True) for r in requests]))
            after = h.scrape(server.address)
        peak_rss_mb = h.vm_hwm_mb(server.pid)
        disk_mb = h.dir_mb(directory)
    finally:
        if server is not None:
            server.stop()
        probe.stop()

    scan = connect(db, backend="seqscan")
    expected, scan_latencies = _scan_oracle(scan, distinct, measured, run.traced)
    failed = sum(
        resp.get("status") != 200 or not same_answer(resp["results"][0], want)
        for leg in legs
        for resp, want in zip(leg.responses, expected)
    )

    headline, detail = _headline(probe, legs[0], setups, peak_rss_mb, disk_mb)
    layers = None
    if run.traced:
        traced = legs[1]
        node_pages = _node_pages(manifest.source_path)
        layers = {
            **_served_span_layers(zip(traced.latencies, traced.responses)),
            **_read_metric_layers(before, after),
            **_count_layers(
                _stat_sums(_response_stats(traced.responses)),
                len(measured),
                node_pages,
            ),
            "baselines.seqscan_ms": 1e3 * h.percentile(scan_latencies, 0.5),
            "obs.trace_overhead": 1.0 - traced.qps(probe) / headline["identify_qps"],
        }
        detail["index_node_pages"] = node_pages
    return Outcome(headline, layers, len(measured) * len(legs), failed, detail)


# -- reid-churn ----------------------------------------------------------------


def make_stream(
    n_identities: int, steps: int, d: int, seed: int
) -> list[tuple[int, PFV]]:
    """A seeded stream of noisy, uncertain observations of
    ``n_identities`` ground-truth identities (each observation carries
    its own per-dimension sigma), as ``(identity, observation)`` pairs.

    A copy of ``make_stream`` in ``benchmarks/bench_reid.py``: the same
    seed gives the same stream. It is copied so that editing that script
    cannot change this benchmark's inputs."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (n_identities, d))
    stream = []
    for _ in range(steps):
        ident = int(rng.integers(n_identities))
        sigma = rng.uniform(0.03, 0.12, d)
        mu = centers[ident] + rng.normal(0.0, sigma)
        stream.append((ident, PFV(mu, sigma)))
    return stream


@dataclasses.dataclass
class _ChurnLeg(_InProcessLeg):
    steps: list = dataclasses.field(default_factory=list)  # (obs, track, expired)
    failed: int = 0


def _churn(session, observations, first_serial, window, *,
           k, window_size, traced):
    """Identify-then-insert with sliding-window expiry, one operation
    at a time."""
    leg = _ChurnLeg(began=time.perf_counter())

    def timed(call, arg):
        started = time.perf_counter()
        if traced:
            trace = Trace()
            with tracing(trace):
                out = call(arg)
            leg.traces.append(trace.to_dict())
        else:
            out = call(arg)
        return started, time.perf_counter() - started, out

    for serial, obs in enumerate(observations, start=first_serial):
        started, lat, rs = timed(session.execute, ConsensusTopK(obs, k))
        leg.identify(started, lat)
        leg.results.append(rs)
        track = PFV(obs.mu, obs.sigma, key=("track", serial))
        leg.writes.append(timed(session.insert, track))
        window.append(track)
        expired = None
        if len(window) > window_size:
            expired = window.pop(0)
            leg.writes.append(timed(session.delete, expired))
            leg.failed += leg.writes[-1][2] is not True
        leg.steps.append((obs, track, expired))
    leg.ended = time.perf_counter()
    return leg


def reid_churn(run: Run) -> Outcome:
    identities, d, k = 24, 4, 3
    window_size, warmup = (10, 4) if run.smoke else (200, 16)
    legs_wanted = 2 if run.traced else 1
    data_seed, _ = seeds(run.seed)  # the stream is the data and the load
    stream = [
        obs
        for _, obs in make_stream(
            identities, window_size + legs_wanted * run.ops, d, data_seed
        )
    ]
    # The first observations are the gallery the deployment starts with,
    # so every measured step runs on a full window.
    gallery = [
        PFV(obs.mu, obs.sigma, key=("track", serial))
        for serial, obs in enumerate(stream[:window_size])
    ]
    warm = [
        ConsensusTopK(obs, k) for obs in stream[window_size : window_size + warmup]
    ]

    window = list(gallery)
    legs = []
    setups = []  # (started, finished)
    probe = h.HostProbe()
    session = None
    try:
        for i in range(run.setups):
            if session is not None:
                session.close()
            directory = _fresh_dir(run, f"setup-{i}")
            started = time.perf_counter()
            manifest = build_shards(
                PFVDatabase(gallery),
                2,
                os.path.join(directory, "reid"),
                policy="round-robin",
            )
            session = connect(manifest.source_path, backend="sharded", writable=True)
            for spec in warm:
                session.execute(spec)
            setups.append((started, time.perf_counter()))

        for first in range(window_size, len(stream), run.ops):
            before = _scrape_registry()
            leg = _churn(session, stream[first : first + run.ops], first,
                         window, k=k, window_size=window_size,
                         traced=len(legs) == 1)
            after = _scrape_registry()
            leg.fsync = (
                h.delta(after, before, "repro_wal_fsync_seconds_sum"),
                h.delta(after, before, "repro_wal_fsync_seconds_count"),
            )
            legs.append(leg)
        peak_rss_mb = h.vm_hwm_mb()
        disk_mb = h.dir_mb(directory)  # index files plus WAL sidecars
    finally:
        if session is not None:
            session.close()  # checkpoints, so the headers count the live pages
        probe.stop()

    # Oracle: replay the identical stream on an in-memory tree.
    oracle = connect(PFVDatabase(gallery), backend="tree", mliq_tolerance=1e-12)
    failed = 0
    for leg in legs:
        failed += leg.failed
        for (obs, track, expired), rs in zip(leg.steps, leg.results):
            want = oracle.execute(ConsensusTopK(obs, k)).matches
            failed += not same_answer([match_to_json(m) for m in rs.matches], want)
            oracle.insert(track)
            if expired is not None:
                oracle.delete(expired)

    headline, detail = _headline(probe, legs[0], setups, peak_rss_mb, disk_mb)
    layers = None
    if run.traced:
        traced = legs[1]
        node_pages = _node_pages(manifest.source_path)
        roots = [span for trace in traced.traces for span in trace["spans"]]
        writes = [lat for _, lat, _ in traced.writes]
        layers = {
            **_fanout_layers([r for r in roots if r["name"] == "session.execute"]),
            **_wal_layers(before, after, len(traced.writes)),
            **_count_layers(
                _stat_sums(
                    (dataclasses.asdict(rs.stats), 1.0) for rs in traced.results
                ),
                len(traced.results),
                node_pages,
            ),
            "engine.write_p50_ms": 1e3 * h.percentile(writes, 0.50),
            "engine.write_p95_ms": 1e3 * h.percentile(writes, 0.95),
            "obs.trace_overhead": 1.0 - traced.qps(probe) / headline["identify_qps"],
            "obs.span_violations": sum(h.span_violations(r) for r in roots),
        }
        detail["index_node_pages"] = node_pages
    attempted = sum(len(leg.results) + len(leg.writes) for leg in legs)
    return Outcome(headline, layers, attempted, failed, detail)


WORKLOADS = {
    "identify-disk": identify_disk,
    "identify-sharded": identify_sharded,
    "reid-churn": reid_churn,
}
