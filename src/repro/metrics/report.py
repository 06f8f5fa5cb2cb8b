"""Plain-text table rendering for the benchmark harness.

The benchmark for each paper table/figure prints the same rows the paper
reports; this helper keeps that output aligned and consistent.
"""

from __future__ import annotations

from typing import Sequence


class Table:
    """A fixed-column text table with right-aligned numeric cells."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_render_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(
                    cell.rjust(widths[i]) if _is_numeric(cell) else cell.ljust(widths[i])
                    for i, cell in enumerate(row)
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("%x"))
        return True
    except ValueError:
        return False
