"""Unit tests for query specs and stats records."""

import pytest

from repro.core.pfv import PFV
from repro.core.queries import Match, MLIQuery, QueryStats, ThresholdQuery


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


class TestQueryStats:
    def test_totals(self):
        s = QueryStats(cpu_seconds=1.0, io_seconds=2.0, modeled_cpu_seconds=0.5)
        assert s.total_seconds == pytest.approx(3.0)
        assert s.modeled_total_seconds == pytest.approx(2.5)

    def test_merge_accumulates_everything(self):
        a = QueryStats(1, 2, 3, 4, 5.0, 6.0, 7.0)
        b = QueryStats(10, 20, 30, 40, 50.0, 60.0, 70.0)
        a.merge(b)
        assert (a.pages_accessed, a.page_faults) == (11, 22)
        assert (a.objects_refined, a.nodes_expanded) == (33, 44)
        assert a.cpu_seconds == pytest.approx(55.0)
        assert a.io_seconds == pytest.approx(66.0)
        assert a.modeled_cpu_seconds == pytest.approx(77.0)

    def test_merge_counts_sweeps(self):
        total = QueryStats()
        for swept in (1, 0, 1):
            total.merge(QueryStats(swept=swept))
        assert total.swept == 2
