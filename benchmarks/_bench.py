"""Helpers shared by the ``BENCH_*.json`` scripts in this directory.

One latency percentile rule and one ``environment`` block, the host
record every committed BENCH JSON carries: the core count and the
Python and numpy versions a run measured with, plus the platform string
and a free-text note where a script records them.
"""

from __future__ import annotations

import os
import platform

import numpy as np

__all__ = ["environment", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``q`` in [0, 1]) of ``values``; 0.0
    for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def environment(
    note: str | None = None, *, with_platform: bool = False
) -> dict:
    """The ``environment`` block of a BENCH JSON: ``cpu_count``,
    ``python`` and ``numpy``, then ``platform`` if ``with_platform``
    and ``note`` if given."""
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if with_platform:
        env["platform"] = platform.platform()
    if note is not None:
        env["note"] = note
    return env
