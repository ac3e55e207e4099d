"""Plain-text table / grid formatting for benchmark output."""

from __future__ import annotations

import math
from typing import List, Sequence


def fmt(value: object, digits: int = 1) -> str:
    """Format a float, rendering NaN / ``None`` as ``'-'`` (a method
    that cannot reach the matched-recall target, a skipped grid cell);
    strings pass through."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, str):
        return value
    return f"{value:.{digits}f}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_grid(
    row_labels: Sequence[object],
    col_labels: Sequence[object],
    values: Sequence[Sequence[object]],
    corner: str = "",
    title: str = "",
) -> str:
    """Render a labeled 2-D grid (Fig. 9 / Fig. 10 style)."""
    headers = [corner] + [str(c) for c in col_labels]
    rows = [
        [str(label)] + [str(v) for v in row]
        for label, row in zip(row_labels, values)
    ]
    return format_table(headers, rows, title=title)
