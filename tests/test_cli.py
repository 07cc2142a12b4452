"""CLI round trips: batch workload files, shard lifecycle, serving.

``repro query --input workload.jsonl`` and ``repro serve`` share one
wire format (:mod:`repro.cluster.wire`); these tests pin the round trip
end to end: specs dumped to JSONL parse back identically, the CLI
replays them through any backend, `shard-build` output connects through
``--backend sharded``, and `repro serve` answers a live client from a
fresh process.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import ServeClient, dump_jsonl, load_jsonl
from repro.engine import MLIQ, TIQ, RankQuery
from repro.core.pfv import PFV


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "ds1.gauss")
    assert main(["build", path, "--dataset", "1", "--scale", "0.03"]) == 0
    return path


@pytest.fixture(scope="module")
def shard_manifest(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("cli-shards") / "ds1")
    assert (
        main(
            [
                "shard-build",
                prefix,
                "--dataset",
                "1",
                "--scale",
                "0.03",
                "--shards",
                "3",
            ]
        )
        == 0
    )
    return prefix + ".shards.json"


def _workload_specs(n=4, d=27, seed=123):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        q = PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.4, d))
        specs.append(MLIQ(q, 3))
        specs.append(TIQ(q, 0.25))
        specs.append(RankQuery(q, 5, min_mass=0.9))
    return specs


def test_jsonl_round_trip_preserves_specs(tmp_path):
    specs = _workload_specs()
    path = tmp_path / "w.jsonl"
    with open(path, "w") as f:
        assert dump_jsonl(specs, f) == len(specs)
    with open(path) as f:
        parsed = load_jsonl(f)
    # Float round trip through JSON is exact (repr-based), so the parsed
    # specs compare equal spec by spec.
    assert parsed == specs


def test_query_replays_an_input_file(built_index, tmp_path, capsys):
    workload = tmp_path / "w.jsonl"
    specs = _workload_specs(n=2)
    with open(workload, "w") as f:
        dump_jsonl(specs, f)
    assert (
        main(["query", built_index, "--input", str(workload), "--show", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert f"{len(specs)} queries" in out
    assert "backend=disk" in out


def test_query_reads_stdin_workload(built_index, capsys, monkeypatch):
    buffer = io.StringIO()
    dump_jsonl(_workload_specs(n=1), buffer)
    monkeypatch.setattr("sys.stdin", io.StringIO(buffer.getvalue()))
    assert main(["query", built_index, "--input", "-"]) == 0
    assert "3 queries" in capsys.readouterr().out


def test_query_input_excludes_generated_workload_flags(built_index):
    with pytest.raises(SystemExit, match="--input replays"):
        main(["query", built_index, "--input", "w.jsonl", "--k", "3"])


def test_query_rejects_bad_input_file(built_index, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "knn", "mu": [0.1], "sigma": [0.1]}\n')
    with pytest.raises(SystemExit, match="unknown query kind"):
        main(["query", built_index, "--input", str(bad)])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(SystemExit, match="no queries"):
        main(["query", built_index, "--input", str(empty)])


def test_query_serves_sharded_manifest(shard_manifest, capsys):
    assert (
        main(
            [
                "query",
                shard_manifest,
                "--backend",
                "sharded",
                "--k",
                "3",
                "--queries",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "backend=sharded(diskx3)" in out
    assert "shard-00:disk" in out  # provenance breakdown printed


@pytest.mark.parametrize("command", ["query", "serve"])
@pytest.mark.parametrize("flag", [["--pool", "process"], ["--workers", "2"]])
def test_pool_flags_are_argparse_errors(built_index, command, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, built_index, *flag])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in (
        capsys.readouterr().err
    )


def test_shard_build_and_input_through_sharded(
    shard_manifest, tmp_path, capsys
):
    workload = tmp_path / "w.jsonl"
    with open(workload, "w") as f:
        dump_jsonl(_workload_specs(n=2), f)
    assert (
        main(
            [
                "query",
                shard_manifest,
                "--backend",
                "sharded",
                "--input",
                str(workload),
            ]
        )
        == 0
    )
    assert "6 queries" in capsys.readouterr().out


def test_serve_smoke_from_fresh_process(shard_manifest, tmp_path):
    """`repro serve` in a real subprocess: healthz + a client query."""
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            shard_manifest,
            "--port",
            "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        url = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving http://"):
                url = line.split()[1]
                break
        assert url, "server never announced its address"
        client = ServeClient(url, timeout=30)
        health = _poll_healthz(client)
        assert health["objects"] > 0
        rng = np.random.default_rng(7)
        q = PFV(rng.uniform(0, 1, 27), rng.uniform(0.05, 0.4, 27))
        answer = client.query([MLIQ(q, 3)])
        assert answer.backend.startswith("sharded(")
        assert len(answer.results[0]) == 3
        assert json.dumps(answer.results[0][0]["key"]) is not None
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _poll_healthz(client, attempts=30):
    last = None
    for _ in range(attempts):
        try:
            return client.healthz()
        except Exception as exc:  # server still starting
            last = exc
            time.sleep(0.3)
    raise AssertionError(f"healthz never came up: {last}")
