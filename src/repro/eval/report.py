"""Plain-text tables for the reproduced figures.

Formats the outputs of :mod:`repro.eval.figures` into the same rows/series
the paper reports, so benchmark logs can show paper-vs-measured side by
side.
"""

from __future__ import annotations

from typing import Sequence

from repro.eval.figures import Figure6Row, Figure7Cell

__all__ = ["format_table", "format_figure6", "format_figure7"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_figure6(rows: Sequence[Figure6Row], title: str = "Figure 6") -> str:
    """Precision/recall sweep table, percentages as in the paper."""
    table_rows = []
    for row in rows:
        nn_p, nn_r = row.nn.as_percent()
        ml_p, ml_r = row.mliq.as_percent()
        table_rows.append([f"x{row.multiple}", nn_p, nn_r, ml_p, ml_r])
    table = format_table(
        ["size", "NN prec%", "NN rec%", "MLIQ prec%", "MLIQ rec%"], table_rows
    )
    return f"{title}\n{table}"


def format_figure7(cells: Sequence[Figure7Cell], title: str = "Figure 7") -> str:
    """Efficiency grid, all values as % of the sequential scan.

    ``cpu`` and ``overall`` use the 2006 cost model; ``wall cpu`` is the
    measured Python time, shown beside them because numpy's vectorised
    scan inverts the CPU ratio the paper measured (see
    :mod:`repro.storage.costmodel`).
    """
    table_rows = [
        [
            cell.query_kind,
            cell.method,
            cell.pages_percent,
            cell.cpu_percent,
            cell.overall_percent,
            cell.wall_cpu_percent,
        ]
        for cell in cells
    ]
    table = format_table(
        ["query", "method", "pages %", "cpu %", "overall %", "wall cpu %"],
        table_rows,
    )
    return f"{title} (100% = Seq.File per query type)\n{table}"
