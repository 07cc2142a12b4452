"""Headline numbers quoted in the docs match the committed BENCH JSONs.

Each quote must equal its JSON value rounded to two decimals, so a
re-run benchmark that moves a headline fails here until the prose
follows it.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (doc, pattern with one group around the quoted number, JSON, key path)
QUOTES = [
    ("docs/serving.md", r"coalescing disabled \(measured: ([\d.]+)x\)",
     "BENCH_serve.json", ("headline", "coalesce_speedup")),
    ("docs/benchmarks.md", r"committed run: ([\d.]+)x, tracking",
     "BENCH_serve.json", ("headline", "coalesce_speedup")),
    ("README.md", r"\(([\d.]+)x measured qps at 8 clients",
     "BENCH_serve.json", ("headline", "coalesce_speedup")),
    ("docs/serving.md", r"half-saturation value \(measured: ([\d.]+)x\)",
     "BENCH_serve.json",
     ("headline", "overload_accepted_p99_over_half_saturation_p99")),
    ("docs/benchmarks.md", r"committed run: ([\d.]+)x — the bounded queue",
     "BENCH_serve.json",
     ("headline", "overload_accepted_p99_over_half_saturation_p99")),
    ("docs/benchmarks.md",
     r"at ([\d.]+)x the single shard's wall-clock throughput",
     "BENCH_cluster.json", ("headline", "wall_sharded_vs_single_shard")),
    ("docs/benchmarks.md", r"batch ([\d.]+)x the per-query loop",
     "BENCH_persistence.json", ("gausstree", "batch_speedup_vs_loop")),
    ("docs/benchmarks.md",
     r"`v3_speedup_vs_v2_baseline` ([\d.]+)x against",
     "BENCH_persistence.json",
     ("format_v3_vs_v2", "v3_speedup_vs_v2_baseline")),
    ("docs/benchmarks.md", r"`v3_speedup_vs_v2_batch` ([\d.]+)x\.",
     "BENCH_persistence.json",
     ("format_v3_vs_v2", "v3_speedup_vs_v2_batch")),
]


@pytest.mark.parametrize(
    "doc, pattern, bench, path",
    QUOTES,
    ids=[f"{doc}:{path[-1]}" for doc, _, _, path in QUOTES],
)
def test_quoted_headline_matches_committed_json(doc, pattern, bench, path):
    # Collapse line breaks so a quote may wrap across lines.
    text = " ".join((ROOT / doc).read_text(encoding="utf-8").split())
    quoted = re.findall(pattern, text)
    assert len(quoted) == 1, f"{doc}: expected one match of {pattern!r}"
    value = json.loads((ROOT / bench).read_text(encoding="utf-8"))
    for key in path:
        value = value[key]
    assert quoted[0] == f"{value:.2f}", (
        f"{doc} quotes {quoted[0]}x but {bench} {'.'.join(path)} "
        f"is {value}"
    )
