"""Plain-text table rendering for experiment output.

The CLIs, the examples and the per-layer benches print their tables
through this module.  The paper's claims and the reproduction's findings
are in README's experiments section (its claims table and "Findings").
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table.

    All cells are stringified; column widths are computed from content.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    separator = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> None:
    """Print a table produced by :func:`format_table`."""
    print()
    print(format_table(headers, rows, title=title))
