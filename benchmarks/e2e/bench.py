#!/usr/bin/env python3
"""End-to-end benchmark of the Gauss-tree identification stack.

Runs one workload declared in the repository's ``BENCHMARK.json``,
checks every answer against an oracle, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` plays the
workload untraced and then traced, and reports the per-layer metrics
(a layer that is not on the workload's path, ``workloads.ON_PATH``,
reads 0). Any wrong, failed or refused operation counts in ``failed``
and makes the exit status 1.

The run pins itself, and so the servers and builds it starts, to one
CPU, where a host-speed probe converts every timed interval to
nominal-host seconds (``_harness.HostProbe``). See README.md next to
this file.

Run from the repository root:

    python3 benchmarks/e2e/bench.py --workload identify-disk --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select_metrics(
    declared: list[dict], values: dict, measured: frozenset | None = None
) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric, in
    declaration order. ``values`` must hold exactly the ``measured``
    names (all declared ones by default); a declared metric outside
    ``measured`` is a layer off this workload's path, which did no work
    and reads 0."""
    names = [m["name"] for m in declared]
    if measured is None:
        measured = frozenset(names)
    if set(values) != measured or not measured <= set(names):
        raise RuntimeError(
            "metrics disagree with BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(names))}, "
            f"missing {sorted(measured - set(values))}, "
            f"off the workload's path {sorted(set(values) - measured)}"
        )
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in declaration["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=declaration["run_seconds"],
        help="run length: sets the measured operation count",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: add a traced pass and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs and counts, for tests (seconds, not minutes)",
    )
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import _harness
    import workloads

    ops = 8 if args.smoke else max(
        1, round(workloads.RATES[args.workload] * args.seconds)
    )
    scratch = os.path.join(ROOT, ".bench_run")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = workloads.Run(
        seed=args.seed,
        ops=ops,
        setups=1 if args.smoke or args.trace else 3,
        traced=bool(args.trace),
        smoke=args.smoke,
        src=SRC,
        work=work,
    )
    allowed = _harness.pin_to_one_cpu()
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = select_metrics(
            declaration["per_layer"],
            outcome.layers,
            workloads.ON_PATH[args.workload],
        )
    else:
        metrics = select_metrics(declaration["end_to_end"], outcome.headline)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    if args.out:
        _harness.write_json(
            args.out,
            {
                "environment": _harness.environment(ROOT),
                "workload": {
                    "name": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "operations": ops,
                    "traced": bool(args.trace),
                    "smoke": args.smoke,
                },
                "headline": outcome.headline,
                "layers": outcome.layers,
                "detail": outcome.detail,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
            },
        )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
