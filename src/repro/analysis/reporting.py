"""Plain-text tables and series for the benchmark harness.

The paper contains no numeric tables (its evaluation is analytic), so the
"regenerate the paper's rows" requirement maps to: print, for each claim,
the measured and predicted values side by side in a stable format that
the benchmark suites and ``repro-fd report`` print (README's "Experiment
index" lists them).  Everything here is deliberately dependency-free
text rendering.
"""

from __future__ import annotations

from typing import Any, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None
) -> str:
    """Render an aligned ASCII table.

    :param headers: column names.
    :param rows: row cells; converted with ``str``.
    :param title: optional heading line.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def render_series(
    x_name: str,
    series: dict[str, Sequence[Any]],
    x_values: Sequence[Any],
    title: str | None = None,
) -> str:
    """Render a figure-like multi-series table (one column per series)."""
    headers = [x_name, *series.keys()]
    rows = [
        [x, *(values[i] for values in series.values())]
        for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, title=title)


def check_mark(ok: bool) -> str:
    """A stable OK/DEVIATION marker used in benchmark output."""
    return "OK" if ok else "DEVIATION"
