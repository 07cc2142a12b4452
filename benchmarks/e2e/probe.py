"""Host-speed probe: times two fixed kernels on this process's CPU.

Run as a child of the benchmark, pinned to the CPU the benchmark runs
on. Every ``period`` seconds it runs :func:`core` and then
:func:`memory` and records when the pair started and ended
(``time.perf_counter``, which is system-wide monotonic and so comparable
with the parent's clock) and the thread CPU time each kernel took. It
prints ``ready`` once the first sample is in; when a line (or EOF)
arrives on stdin it prints every sample as one JSON list of
``[started, core_cpu, memory_cpu, ended]`` and exits.

:func:`core` mixes heap operations with small NumPy calls, as a tree
traversal does, and fits in the core's own caches: it slows down when
another tenant shares the core. :func:`memory` looks up scattered keys
of a table much larger than the core's caches: it slows down when other
tenants evict the shared cache or load the memory bus. Both belong to
the benchmark, so no change to the program under test can change them.
"""

from __future__ import annotations

import heapq
import json
import random
import select
import sys
import time

import numpy as np

_ROWS = np.random.default_rng(0).random((64, 10))

#: ~40 MiB of small objects, looked up at 1,500 fixed random keys.
_TABLE_SIZE = 300_000
_TABLE = {i: (i, str(i)) for i in range(_TABLE_SIZE)}
_KEYS = random.Random(0).sample(range(_TABLE_SIZE), 1500)


def core() -> float:
    heap: list = []
    total = 0.0
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        if i % 3 == 0:
            total += float(np.exp(-(_ROWS[i % 64] ** 2).sum()))
    while heap:
        heapq.heappop(heap)
    return total


def memory() -> int:
    total = 0
    for key in _KEYS:
        total += _TABLE[key][0]
    return total


def main(period: float) -> None:
    samples = []

    def sample() -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        core()
        middle = time.thread_time()
        memory()
        done = time.thread_time()
        samples.append((started, middle - cpu, done - middle, time.perf_counter()))

    sample()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], period)[0]:
        sample()
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main(float(sys.argv[1]))
