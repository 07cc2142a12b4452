"""Shared fixtures: small seeded databases and query generators.

Also registers the hypothesis profiles: the crash-injection/durability
property tests (tests/storage/test_wal.py, tests/gausstree/
test_persist_write.py, tests/storage/test_publish.py) deliberately do
not pin ``max_examples``, so the example budget is the active
profile's — ``dev`` (20 examples, fast local feedback) by default,
``default`` (hypothesis's stock 100) for CI's main suite via
``REPRO_HYPOTHESIS_PROFILE=default``, and ``ci`` (150) when the
dedicated durability step passes ``--hypothesis-profile=ci``. Tests
that pin their own ``@settings`` are unaffected by profiles.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.database import PFVDatabase
from repro.core.pfv import PFV

settings.register_profile("dev", max_examples=20, deadline=None)
settings.register_profile("default", deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None)
# Test modules that import helpers from this file run it again at
# collection, after the hypothesis plugin has loaded a profile passed as
# --hypothesis-profile; only the first run picks the profile.
if settings.get_current_profile_name() == "default":
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))


def make_random_db(
    n: int = 60,
    d: int = 3,
    seed: int = 0,
    sigma_low: float = 0.05,
    sigma_high: float = 0.4,
) -> PFVDatabase:
    """A small uniform pfv database with integer keys."""
    rng = np.random.default_rng(seed)
    vectors = [
        PFV(
            rng.uniform(0.0, 1.0, d),
            rng.uniform(sigma_low, sigma_high, d),
            key=i,
        )
        for i in range(n)
    ]
    return PFVDatabase(vectors)


def make_random_query(d: int = 3, seed: int = 1) -> PFV:
    rng = np.random.default_rng(seed)
    return PFV(rng.uniform(0.0, 1.0, d), rng.uniform(0.05, 0.4, d))


def lru_reference(sequence, capacity, resident=()):
    """A plain LRU cache read through ``sequence``: the resident pages
    in LRU order, the faults and the evictions."""
    order = list(resident)
    faults = evictions = 0
    for pid in sequence:
        if pid in order:
            order.remove(pid)
            order.append(pid)
            continue
        faults += 1
        if capacity == 0:
            continue
        if len(order) >= capacity:
            order.pop(0)
            evictions += 1
        order.append(pid)
    return order, faults, evictions


@pytest.fixture
def small_db() -> PFVDatabase:
    return make_random_db()


@pytest.fixture
def query_pfv() -> PFV:
    return make_random_query()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
