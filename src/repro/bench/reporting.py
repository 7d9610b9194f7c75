"""Formatting helpers for paper-style tables.

The benchmarks print their results in the same row/column layout as the
paper's tables so that EXPERIMENTS.md can show paper-vs-measured side
by side.  The helpers here are intentionally plain-text (no external
table libraries) and return the rendered string so tests can assert on
structure.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width text table."""
    rendered_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_comparison(
    metric_names: Sequence[str],
    per_assembler: Mapping[str, Mapping[str, object]],
    title: str = "",
) -> str:
    """Render a Table IV/V-style comparison: metrics as rows, assemblers as columns."""
    assemblers = list(per_assembler)
    headers = ["Metric"] + assemblers
    rows = []
    for metric in metric_names:
        row = [metric]
        for assembler in assemblers:
            row.append(per_assembler[assembler].get(metric, "-"))
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_scaling_series(
    series: Mapping[str, Mapping[int, float]],
    title: str = "",
    unit: str = "s",
) -> str:
    """Render a Figure 12-style series: workers as rows, assemblers as columns."""
    assemblers = list(series)
    workers = sorted({worker for values in series.values() for worker in values})
    headers = ["Workers"] + assemblers
    rows = []
    for worker in workers:
        row: List[object] = [worker]
        for assembler in assemblers:
            value = series[assembler].get(worker)
            row.append(f"{value:.1f}{unit}" if value is not None else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)
