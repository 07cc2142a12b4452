"""Unit tests for the 2006 testbed cost model."""

import pytest

from repro.core.queries import QueryStats
from repro.storage.costmodel import PAPER_TESTBED, DiskCostModel


class TestDiskTimes:
    def test_random_read_pays_seek_per_page(self):
        m = DiskCostModel()
        one = m.random_read_seconds(1)
        assert one == pytest.approx(
            m.seek_seconds + m.rotational_seconds + m.page_transfer_seconds
        )
        assert m.random_read_seconds(10) == pytest.approx(10 * one)

    def test_sequential_run_pays_one_seek(self):
        m = DiskCostModel()
        run = m.sequential_read_seconds(100)
        assert run == pytest.approx(
            m.seek_seconds + m.rotational_seconds + 100 * m.page_transfer_seconds
        )

    def test_sequential_beats_random_for_runs(self):
        m = DiskCostModel()
        assert m.sequential_read_seconds(50) < m.random_read_seconds(50)

    def test_zero_pages(self):
        m = DiskCostModel()
        assert m.sequential_read_seconds(0) == 0.0
        assert m.random_read_seconds(0) == 0.0

    def test_negative_pages_rejected(self):
        m = DiskCostModel()
        with pytest.raises(ValueError):
            m.random_read_seconds(-1)
        with pytest.raises(ValueError):
            m.sequential_read_seconds(-1)

    def test_transfer_time_scales_with_page_size(self):
        small = DiskCostModel(page_size=4096)
        large = DiskCostModel(page_size=8192)
        assert large.page_transfer_seconds == pytest.approx(
            2 * small.page_transfer_seconds
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskCostModel(seek_seconds=-1.0)
        with pytest.raises(ValueError):
            DiskCostModel(transfer_bytes_per_second=0)
        with pytest.raises(ValueError):
            DiskCostModel(page_size=0)
        with pytest.raises(ValueError):
            DiskCostModel(cpu_per_refinement_seconds=-1.0)


class TestModeledCpu:
    def test_linear_in_work(self):
        m = DiskCostModel()
        assert m.modeled_cpu_seconds(100, 10) == pytest.approx(
            100 * m.cpu_per_refinement_seconds + 10 * m.cpu_per_page_seconds
        )

    def test_zero_work(self):
        assert DiskCostModel().modeled_cpu_seconds(0, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DiskCostModel().modeled_cpu_seconds(-1, 0)


class TestFanOut:
    def test_prices_the_sum_plus_one_dispatch_per_branch(self):
        m = DiskCostModel()
        assert m.fan_out_seconds([0.010, 0.002, 0.030]) == pytest.approx(
            0.042 + 3 * m.fanout_dispatch_seconds, rel=1e-12
        )
        # Branches are paid in turn: the slowest one is not the price.
        assert m.fan_out_seconds([0.010, 0.010]) > m.fan_out_seconds([0.010])
        assert m.fan_out_seconds([]) == 0.0
        assert DiskCostModel(fanout_dispatch_seconds=0.0).fan_out_seconds(
            [0.5, 0.25]
        ) == pytest.approx(0.75)

    def test_negative_branch_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiskCostModel().fan_out_seconds([0.01, -0.001])


class TestPrice:
    def test_random_faults_runs_and_run_pages(self):
        m = DiskCostModel()
        # 7 faults: 4 random, 3 in the two runs that faulted.
        stats = QueryStats(
            pages_accessed=12,
            page_faults=7,
            faulted_runs=2,
            faulted_run_pages=3,
            objects_refined=40,
        )
        io, cpu = m.price(stats, vectorized=False)
        assert io == pytest.approx(
            m.random_read_seconds(4)
            + m.sequential_read_seconds(1)
            + m.sequential_read_seconds(2),
            rel=1e-12,
        )
        assert cpu == m.modeled_cpu_seconds(40, 12)

    def test_vectorized_prices_refinements_at_the_kernel_rate(self):
        m = DiskCostModel()
        stats = QueryStats(pages_accessed=3, objects_refined=1000)
        _, scalar = m.price(stats, vectorized=False)
        _, vectorized = m.price(stats, vectorized=True)
        assert vectorized == m.modeled_cpu_seconds(1000, 3, vectorized=True)
        assert vectorized < scalar

    def test_no_work_is_free(self):
        assert DiskCostModel().price(QueryStats(), vectorized=True) == (
            0.0,
            0.0,
        )

    def test_a_merged_batch_prices_as_its_queries(self):
        m = DiskCostModel()
        queries = [
            QueryStats(pages_accessed=5, page_faults=2, objects_refined=9),
            QueryStats(
                pages_accessed=8,
                page_faults=8,
                faulted_runs=1,
                faulted_run_pages=8,
                objects_refined=30,
            ),
            QueryStats(pages_accessed=4, objects_refined=1),
        ]
        total = QueryStats()
        for stats in queries:
            total.merge(stats)
        priced = [m.price(stats, vectorized=True) for stats in queries]
        io, cpu = m.price(total, vectorized=True)
        assert io == pytest.approx(sum(p[0] for p in priced), rel=1e-12)
        assert cpu == pytest.approx(sum(p[1] for p in priced), rel=1e-12)

    def test_paper_testbed_is_the_default_model(self):
        assert PAPER_TESTBED == DiskCostModel()
