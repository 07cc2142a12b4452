"""Integration tests of the experiment harness at miniature scale.

The real figure runs live in benchmarks/; these tests pin the harness
mechanics (batching, cold starts, normalisation, report formatting) and
the qualitative shape of both figures on tiny datasets so regressions
surface in seconds.
"""

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScanIndex
from repro.baselines.xtree_pfv import XTreePFVIndex
from repro.data.histograms import color_histogram_dataset
from repro.data.workload import identification_workload
from repro.eval.figures import dataset1, dataset2, figure6, figure7, make_page_store
from repro.eval.report import format_figure6, format_figure7, format_table
from repro.eval.runner import run_mliq_batch, run_tiq_batch
from repro.gausstree.bulkload import bulk_load


@pytest.fixture(scope="module")
def mini_db():
    return color_histogram_dataset(n=600)


@pytest.fixture(scope="module")
def mini_workload(mini_db):
    return identification_workload(mini_db, 15, seed=3)


class TestRunner:
    def test_mliq_batch_totals(self, mini_db, mini_workload):
        idx = SequentialScanIndex(mini_db, page_store=make_page_store(27))
        batch = run_mliq_batch(idx, mini_workload, k=1)
        assert batch.queries == 15
        assert batch.totals.pages_accessed == 15 * idx.file_pages
        assert batch.effectiveness is not None
        assert 0.0 <= batch.effectiveness.recall <= 1.0

    def test_tiq_batch(self, mini_db, mini_workload):
        idx = SequentialScanIndex(mini_db, page_store=make_page_store(27))
        batch = run_tiq_batch(idx, mini_workload, p_theta=0.5)
        assert batch.query_kind == "TIQ(P=0.5)"
        assert batch.totals.pages_accessed == 2 * 15 * idx.file_pages

    def test_cold_start_applied(self, mini_db, mini_workload):
        store = make_page_store(27)
        idx = SequentialScanIndex(mini_db, page_store=store)
        run_mliq_batch(idx, mini_workload, k=1)
        first = store.buffer.stats.snapshot()
        run_mliq_batch(idx, mini_workload, k=1)
        # Second batch cold-starts: it faults the file again.
        assert store.buffer.stats.faults > first["faults"]

    def test_summary_keys(self, mini_db, mini_workload):
        idx = SequentialScanIndex(mini_db, page_store=make_page_store(27))
        batch = run_mliq_batch(idx, mini_workload, k=1)
        summary = batch.summary()
        for key in ("pages_accessed", "cpu_seconds", "precision", "recall"):
            assert key in summary
        # Counters and the measured time only: modeled seconds are
        # Figure 7's to price.
        assert not {"io_seconds", "total_seconds"} & set(summary)

    def test_empty_workload_rejected(self, mini_db):
        idx = SequentialScanIndex(mini_db, page_store=make_page_store(27))
        with pytest.raises(ValueError):
            run_mliq_batch(idx, [], k=1)


class TestFigure6:
    def test_shape_on_mini_ds1(self, mini_db, mini_workload):
        rows = figure6(mini_db, mini_workload, multiples=(1, 3, 9))
        assert [r.multiple for r in rows] == [1, 3, 9]
        # MLIQ dominates NN at the exact result size (the paper's point).
        assert rows[0].mliq.recall > rows[0].nn.recall
        # Recall is monotone in the result multiple for both methods.
        assert rows[2].nn.recall >= rows[0].nn.recall
        assert rows[2].mliq.recall >= rows[0].mliq.recall
        # Precision decays with the multiple.
        assert rows[2].nn.precision <= rows[0].nn.precision + 1e-12

    def test_report_formatting(self, mini_db, mini_workload):
        rows = figure6(mini_db, mini_workload, multiples=(1, 2))
        text = format_figure6(rows, "t")
        assert "NN prec%" in text and "x2" in text


class TestFigure7:
    # pages % / cpu % / overall % of every cell, as printed. The columns
    # depend only on counted pages, faults and refinements priced on the
    # 2006 testbed, so any change to traversal, pruning, accounting or
    # pricing moves them; the measured wall cpu % is not pinned.
    MINI_DS1_GRID = {
        ("G-Tree", "1-MLIQ"): ("27.6", "4.5", "109.9"),
        ("X-Tree", "1-MLIQ"): ("30.8", "5.0", "183.3"),
        ("Seq.File", "1-MLIQ"): ("100.0", "100.0", "100.0"),
        ("G-Tree", "TIQ(P=0.8)"): ("13.9", "3.9", "98.7"),
        ("X-Tree", "TIQ(P=0.8)"): ("15.4", "4.3", "159.2"),
        ("Seq.File", "TIQ(P=0.8)"): ("100.0", "100.0", "100.0"),
    }

    def test_grid_on_mini_ds1(self, mini_db, mini_workload):
        cells = figure7(mini_db, mini_workload, thresholds=(0.8,))
        got = {
            (c.method, c.query_kind): tuple(
                f"{value:.1f}"
                for value in (
                    c.pages_percent, c.cpu_percent, c.overall_percent
                )
            )
            for c in cells
        }
        assert got == self.MINI_DS1_GRID

    def test_report_formatting(self, mini_db, mini_workload):
        cells = figure7(mini_db, mini_workload, thresholds=(0.8,))
        text = format_figure7(cells)
        assert "pages %" in text and "Seq.File" in text


class TestDatasetBuilders:
    def test_dataset1_scaling(self):
        db = dataset1(scale=0.05)
        assert len(db) == max(500, round(10_987 * 0.05))
        assert db.dims == 27

    def test_dataset2_scaling(self):
        db = dataset2(scale=0.02)
        assert len(db) == 2000
        assert db.dims == 10


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["a", "b"], [["x", 1.234], ["yy", 10.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.2" in text and "10.0" in text
