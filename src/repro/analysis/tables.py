"""Plain-text table and series rendering for benches and examples.

The benchmark harness "plots" every figure as aligned text series — the
same rows the paper charts — so results are diffable and reviewable
without a plotting stack.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro._util import format_float, require

__all__ = ["render_table", "render_series"]


def render_table(headers: Sequence[str], rows: Iterable[Sequence], *, title: str = "") -> str:
    """Fixed-width table with a header rule; cells formatted compactly."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        require(len(row) == len(headers), "row width must match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title: str, x_label: str, x_values, columns: dict[str, Sequence[float]]) -> str:
    """One x column plus any number of named y columns."""
    headers = [x_label, *columns.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *[col[i] for col in columns.values()]])
    return render_table(headers, rows, title=title)


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)
