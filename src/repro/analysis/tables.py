"""Plain-text table formatting for experiment results."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _format_cell(value, width: int, numeric: bool) -> str:
    if isinstance(value, float):
        text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width) if numeric else text.ljust(width)


#: Narrowest column, so short headers still line up.
MIN_COLUMN_WIDTH = 6


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render ``rows`` as an aligned plain-text table.

    Numeric columns (those whose every value is an int/float) are
    right-aligned; everything else is left-aligned.  Floats are printed with
    three decimals.
    """
    rows = [list(row) for row in rows]
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")

    columns = len(headers)
    numeric = [
        all(isinstance(row[i], (int, float)) and not isinstance(row[i], bool) for row in rows)
        if rows
        else False
        for i in range(columns)
    ]
    widths: List[int] = []
    for i in range(columns):
        cells = [_format_cell(row[i], 0, numeric[i]).strip() for row in rows]
        width = max([len(headers[i])] + [len(cell) for cell in cells] + [MIN_COLUMN_WIDTH])
        widths.append(width)

    lines = []
    header_line = "  ".join(
        headers[i].rjust(widths[i]) if numeric[i] else headers[i].ljust(widths[i])
        for i in range(columns)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rows:
        lines.append(
            "  ".join(_format_cell(row[i], widths[i], numeric[i]) for i in range(columns))
        )
    return "\n".join(lines)
