"""Unit tests for the 2006 testbed cost model."""

import pytest

from repro.storage.costmodel import DiskCostModel


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
