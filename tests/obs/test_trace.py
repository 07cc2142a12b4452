"""Trace trees, contextvar propagation, and the slow-query log."""

import itertools
import json
import threading
from types import SimpleNamespace

from repro.obs import (
    SlowQueryLog,
    Span,
    Trace,
    current_trace,
    format_span_tree,
    span,
    tracing,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import mint_trace_id

from tests.obs.span_invariants import assert_span_invariants


class TestTrace:
    def test_ids_are_16_hex_and_unique(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_supplied_id_is_kept(self):
        assert Trace("cafe").trace_id == "cafe"

    def test_span_blocks_nest(self):
        t = Trace()
        with t.span("outer"):
            with t.span("inner"):
                t.add("leaf", dur=0.001)
        d = t.to_dict()
        assert [s["name"] for s in d["spans"]] == ["outer"]
        outer = d["spans"][0]
        assert outer["children"][0]["name"] == "inner"
        assert outer["children"][0]["children"][0]["name"] == "leaf"
        # Each parent covers at least its children's time.
        assert outer["dur"] >= outer["children"][0]["dur"]

    def test_raising_span_is_marked_error(self):
        t = Trace()
        try:
            with t.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert t.to_dict()["spans"][0]["status"] == "error"
        assert_span_invariants(t)

    def test_to_dict_omits_unset_annotations(self):
        t = Trace()
        t.add("bare", dur=0.0)
        t.add("full", dur=0.0, shard="01", pages=4, count=2, status="ok")
        bare, full = t.to_dict()["spans"]
        assert set(bare) == {"name", "start", "dur"}
        assert full["shard"] == "01" and full["pages"] == 4
        assert full["count"] == 2 and full["status"] == "ok"

    def test_shifted_moves_whole_subtree(self):
        root = Span("a", 0.5, 1.0)
        root.children.append(Span("b", 0.7, 0.1))
        moved = root.shifted(0.25)
        assert moved.start == 0.75 and moved.children[0].start == 0.95
        # The original is untouched (shifted is a deep copy).
        assert root.start == 0.5 and root.children[0].start == 0.7

    def test_module_span_is_noop_without_active_trace(self):
        assert current_trace() is None
        with span("ignored") as node:
            assert node is None

    def test_tracing_activates_and_restores(self):
        t = Trace()
        with tracing(t):
            assert current_trace() is t
            with span("step", count=3) as node:
                assert node.count == 3
            with tracing(None):  # explicit deactivation nests too
                assert current_trace() is None
            assert current_trace() is t
        assert current_trace() is None
        assert [s.name for s in t.spans] == ["step"]
        assert_span_invariants(t)

    def test_stall_after_a_span_opens_keeps_children_inside(
        self, monkeypatch
    ):
        """Regression: a delay right after a span opens (another thread
        taking the GIL, say) must lengthen the span. Reading the clock a
        second time to time it moved the span's end earlier by the
        delay, so its children overhung it."""
        reads = itertools.count(1)

        def clock():
            # 1 ms per read, plus a 4 ms stall between reads 1 and 2.
            n = next(reads)
            return n * 1e-3 + (4e-3 if n >= 2 else 0.0)

        monkeypatch.setattr(
            obs_trace, "time", SimpleNamespace(perf_counter=clock)
        )
        t = Trace(epoch=0.0)
        with t.span("parent"):
            with t.span("child"):
                pass
        (parent,) = t.spans
        (child,) = parent.children
        assert parent.start + parent.dur >= child.start + child.dur
        assert_span_invariants(t)

    def test_context_is_per_thread(self):
        t = Trace()
        seen = []

        def other():
            seen.append(current_trace())

        with tracing(t):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen == [None]  # a fresh thread has a fresh context

    def test_format_span_tree_renders_every_node(self):
        t = Trace("feedbeef00000000")
        with t.span("request", count=2):
            t.add("shard", dur=0.002, shard="00", pages=7)
        text = format_span_tree(t.to_dict())
        assert text.splitlines()[0] == "trace feedbeef00000000"
        assert "request" in text and "shard" in text
        assert "shard=00" in text and "pages=7" in text


class TestSlowQueryLog:
    def test_fast_queries_write_nothing(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), threshold_ms=100.0)
        assert log.maybe_log(0.05) is False
        assert log.entries_written == 0
        assert not path.exists()  # file opened lazily, never touched
        log.close()

    def test_slow_entry_is_self_contained_jsonl(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        with SlowQueryLog(str(path), threshold_ms=10.0) as log:
            wrote = log.maybe_log(
                0.5,
                queries=[{"kind": "mliq", "k": 3}],
                trace={"id": "abc", "spans": []},
                plan="plan text",
                stats={"pages_accessed": 9},
                source="test",
            )
            assert wrote and log.entries_written == 1
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["elapsed_ms"] == 500.0
        assert entry["threshold_ms"] == 10.0
        assert entry["queries"] == [{"kind": "mliq", "k": 3}]
        assert entry["trace"]["id"] == "abc"
        assert entry["plan"] == "plan text"
        assert entry["stats"]["pages_accessed"] == 9
        assert entry["source"] == "test"
        assert entry["ts"] > 0

    def test_threshold_seconds_matches_ms(self):
        log = SlowQueryLog("/dev/null", threshold_ms=250.0)
        assert log.threshold_seconds == 0.25
        log.close()

    def test_concurrent_writers_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), threshold_ms=0.0)
        threads = [
            threading.Thread(
                target=lambda i=i: [
                    log.maybe_log(1.0, source=f"w{i}") for _ in range(20)
                ]
            )
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 80 == log.entries_written
        for line in lines:
            json.loads(line)  # every line parses — no torn writes
