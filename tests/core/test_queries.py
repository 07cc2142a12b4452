"""Unit tests for query specs and stats records."""

import dataclasses

import numpy as np
import pytest

from repro.core.pfv import PFV
from repro.core.queries import (
    Match,
    MLIQuery,
    QueryStats,
    RowMatch,
    ThresholdQuery,
    built,
)
from repro.gausstree.node import LeafNode
from repro.storage.costmodel import PAPER_TESTBED


class TestSpecs:
    def test_mliq_defaults(self):
        q = MLIQuery(PFV([0.0], [1.0]))
        assert q.k == 1

    def test_mliq_rejects_bad_k(self):
        with pytest.raises(ValueError):
            MLIQuery(PFV([0.0], [1.0]), k=0)

    def test_tiq_threshold_range(self):
        ThresholdQuery(PFV([0.0], [1.0]), 0.0)
        ThresholdQuery(PFV([0.0], [1.0]), 1.0)
        with pytest.raises(ValueError):
            ThresholdQuery(PFV([0.0], [1.0]), 1.5)
        with pytest.raises(ValueError):
            ThresholdQuery(PFV([0.0], [1.0]), -0.1)

    def test_specs_are_frozen(self):
        q = MLIQuery(PFV([0.0], [1.0]), 2)
        with pytest.raises(AttributeError):
            q.k = 3


class TestMatch:
    def test_key_passthrough(self):
        m = Match(PFV([0.0], [1.0], key="obj"), -1.0, 0.5)
        assert m.key == "obj"
        assert "obj" in repr(m)


class TestRowMatch:
    def _leaf(self):
        # Rows 0-1 are columns only (as decoded or bulk-loaded rows are);
        # row 2 was added from a caller's pfv.
        leaf = LeafNode(page_id=1)
        leaf.set_columns(
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            np.array([[0.5, 0.5], [0.6, 0.6]]),
            ["b", "c"],
        )
        added = PFV([0.0, 0.0], [1.0, 1.0], key="a")
        leaf.add(added)
        return leaf, added

    def test_build_goes_through_entry_at(self):
        leaf, added = self._leaf()
        ref = RowMatch(leaf, 2, -1.5, 0.25)
        match = ref.build()
        assert type(match) is Match
        assert match.vector is added  # the caller's own object
        assert (match.log_density, match.probability) == (-1.5, 0.25)
        assert ref.key == "a" and ref.score is None

    def test_built_passes_matches_through(self):
        leaf, _ = self._leaf()
        done = Match(PFV([0.0], [1.0], key="x"), -1.0, 0.5)
        out = built([done, RowMatch(leaf, 1, -3.0, 0.1)])
        assert out[0] is done
        assert type(out[1]) is Match and out[1].key == "c"
        assert out[1].vector.mu.tolist() == [0.3, 0.4]


class TestQueryStats:
    def test_totals(self):
        # The record holds counters and the measured time; the modeled
        # IO and CPU are the cost model's price of the counters.
        s = QueryStats(
            pages_accessed=3, page_faults=2, objects_refined=5, cpu_seconds=1.0
        )
        io, cpu = PAPER_TESTBED.price(s, vectorized=False)
        assert io == pytest.approx(PAPER_TESTBED.random_read_seconds(2))
        assert cpu == pytest.approx(PAPER_TESTBED.modeled_cpu_seconds(5, 3))
        assert not {"io_seconds", "modeled_cpu_seconds"} & {
            f.name for f in dataclasses.fields(QueryStats)
        }

    def test_merge_accumulates_everything(self):
        fields = [f.name for f in dataclasses.fields(QueryStats)]
        a = QueryStats(*range(1, len(fields) + 1))
        b = QueryStats(*range(10, 10 * len(fields) + 1, 10))
        a.merge(b)
        for i, name in enumerate(fields, 1):
            assert getattr(a, name) == pytest.approx(11 * i), name

    def test_merge_counts_sweeps(self):
        total = QueryStats()
        for swept in (1, 0, 1):
            total.merge(QueryStats(swept=swept))
        assert total.swept == 2
