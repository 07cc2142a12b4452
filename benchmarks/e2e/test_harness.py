"""Tests of the end-to-end benchmark: harness rules and output contract.

The contract half runs every workload in ``--smoke`` mode, untraced and
traced, and checks the printed result line against ``BENCHMARK.json``.
"""

import json
import re
import time
import types

import pytest

import _harness as h
import bench
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
DECLARED = bench.load_declaration()

#: On-path per-layer metrics that a healthy smoke run may read as 0: no
#: request is shed, spans may all nest, decoding may finish during
#: warm-up, and a tiny index may be read whole.
MAY_READ_ZERO = {
    "serve.shed_total",
    "obs.span_violations",
    "storage.page_decode_ms",
    "gausstree.page_prune_ratio",
}


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert h.percentile(values, 0.0) == 1.0
    assert h.percentile(values, 0.5) == 3.0
    assert h.percentile(values, 1.0) == 5.0
    assert h.percentile(list(range(1, 101)), 0.95) == 95
    assert h.percentile(list(range(1, 101)), 0.99) == 99
    # A layer that reported nothing is an error, never a silent 0.
    with pytest.raises(ValueError):
        h.percentile([], 0.5)
    with pytest.raises(ValueError):
        h.ratio(3.0, 0)


def test_scaled_seconds_integrates_the_speed_steps():
    # Full speed from t=10, half speed from t=12, full again from t=14.
    times, speeds = [10.0, 12.0, 14.0], [1.0, 0.5, 1.0]
    assert h.scaled_seconds(times, speeds, 11.0, 11.5) == pytest.approx(0.5)
    assert h.scaled_seconds(times, speeds, 11.0, 13.0) == pytest.approx(1.5)
    assert h.scaled_seconds(times, speeds, 10.0, 16.0) == pytest.approx(5.0)
    # Before the first sample and after the last, the nearest step holds.
    assert h.scaled_seconds(times, speeds, 8.0, 10.0) == pytest.approx(2.0)
    assert h.scaled_seconds(times, speeds, 15.0, 20.0) == pytest.approx(5.0)
    assert h.scaled_seconds(times, speeds, 12.5, 12.5) == 0.0


def test_host_probe_leaves_out_its_own_runs():
    probe = h.HostProbe.__new__(h.HostProbe)  # samples without a child
    probe._times, probe._ends, probe._speeds = [10.0, 12.0], [10.5, 12.5], [1.0, 2.0]
    probe._tail_speeds = [0.5, 1.0]
    assert probe.seconds(10.0, 12.0) == pytest.approx(1.5)
    assert probe.seconds(11.0, 13.0) == pytest.approx(1.0 + 2.0 - 1.0)
    assert probe.seconds(10.2, 10.4) == pytest.approx(0.0)
    assert probe.tail_seconds(11.0, 13.0) == pytest.approx(0.5 + 1.0 - 0.5)


def test_host_probe_samples_and_scales_an_interval():
    probe = h.HostProbe()
    started = time.perf_counter()
    time.sleep(0.35)
    ended = time.perf_counter()
    probe.stop()
    probe.stop()  # idempotent
    assert probe.proc.returncode == 0
    assert probe.samples() >= 3
    assert 0 < probe.seconds(started, ended) < 10 * (ended - started)
    assert 0 < probe.tail_seconds(started, ended) < 10 * (ended - started)


def test_self_time_clips_a_child_that_overruns_its_parent():
    # A child ending 6 us past its parent (wire times are microseconds).
    child = {"name": "run.query", "start": 0.000050, "dur": 0.000056}
    parent = {"name": "session.execute", "start": 0.0, "dur": 0.000100,
              "children": [child]}
    assert h.self_time(parent) == pytest.approx(50e-6)
    assert h.span_violations(parent) == 1
    child["dur"] = 0.000054  # 4 us past: within the rounding tolerance
    assert h.span_violations(parent) == 0


def test_self_time_counts_overlapping_children_once():
    parent = {"name": "cluster.fanout", "start": 1.0, "dur": 10.0, "children": [
        {"name": "shard", "start": 1.0, "dur": 10.0},
        {"name": "session.execute", "start": 2.0, "dur": 3.0},
        {"name": "session.execute", "start": 6.0, "dur": 2.0},
    ]}
    work = parent["children"][1:]
    assert h.self_time(parent) == 0.0
    assert h.self_time(parent, work) == pytest.approx(5.0)
    bad = {"name": "x", "start": 0.0, "dur": -1e-3}
    assert h.span_violations(bad) == 1


def test_layer_clock_self_times_add_up_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(1000))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    original_inner = ns.inner
    clock = h.LayerClock()
    clock.wrap(ns, "outer", "outer")
    clock.wrap(ns, "inner", "inner")
    ns.outer()
    assert clock.calls() == {"outer": 1, "inner": 3}
    assert clock.self_seconds("outer") > 0 and clock.self_seconds("inner") > 0
    clock.restore()
    assert ns.inner is original_inner


def test_declaration_names_and_units_are_well_formed():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    for workload in DECLARED["workloads"]:
        assert workloads.ON_PATH[workload["name"]] <= per_layer
    assert set().union(*workloads.ON_PATH.values()) == per_layer


def test_select_metrics_rejects_a_missing_on_path_layer():
    declared = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "ms"}]
    assert bench.select_metrics(declared, {"a": 2.0}, frozenset({"a"})) == {
        "a": {"value": 2.0, "unit": "ms"},
        "b": {"value": 0, "unit": "ms"},
    }
    with pytest.raises(RuntimeError):
        bench.select_metrics(declared, {}, frozenset({"a"}))
    with pytest.raises(RuntimeError):
        bench.select_metrics(declared, {"a": 2.0, "b": 1.0}, frozenset({"a"}))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in DECLARED["workloads"]]
)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace, capsys):
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert f"{m['name']} {emitted['value']} {m['unit']}" in lines
    # Every layer on the workload's path did work; end-to-end metrics
    # are never 0.
    must_work = (
        workloads.ON_PATH[workload] - MAY_READ_ZERO
        if trace
        else {m["name"] for m in declared}
    )
    silent = [n for n in sorted(must_work) if result["metrics"][n]["value"] == 0]
    assert not silent, f"on-path metrics read 0: {silent}"
