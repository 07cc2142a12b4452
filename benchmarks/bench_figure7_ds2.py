"""Figure 7(b) — efficiency grid on data set 2 (synthetic 10-d pfv).

Default scale is 20,000 objects (REPRO_FULL_SCALE=1 for the paper's
100,000). Paper reference: Gauss-tree 4.3x fewer pages for MLIQ and
35.7-43.2x for TIQ; overall time 3.1-7.5x better. Our reproduction keeps
the ordering (TIQ cheaper than MLIQ, both cheaper than the scan) at
smaller factors.
"""

from repro.eval.figures import figure7
from repro.eval.report import format_figure7


def test_figure7_ds2(benchmark, ds2, ds2_workload):
    cells = benchmark.pedantic(
        lambda: figure7(ds2, ds2_workload), rounds=1, iterations=1
    )
    print()
    print(format_figure7(cells, "Figure 7(b) - data set 2"))
    by = {(c.method, c.query_kind): c for c in cells}
    for c in cells:
        benchmark.extra_info[
            f"{c.method}/{c.query_kind}"
        ] = f"pages {c.pages_percent:.1f}% cpu {c.cpu_percent:.1f}% overall {c.overall_percent:.1f}%"
    # Shape contract: the Gauss-tree wins pages on every query type, and
    # TIQ prunes harder than MLIQ (the paper's ordering).
    for kind in ("1-MLIQ", "TIQ(P=0.8)", "TIQ(P=0.2)"):
        assert by[("G-Tree", kind)].pages_percent < 100.0
    assert (
        by[("G-Tree", "TIQ(P=0.8)")].pages_percent
        < by[("G-Tree", "1-MLIQ")].pages_percent
    )
