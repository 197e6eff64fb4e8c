"""Plain-text result tables (the benchmark harness's output format)."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


class Table:
    """A simple aligned text table builder.

    >>> t = Table(["machine", "time [s]"])
    >>> t.add_row(["raster", 12.5])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []
        self.title = title

    def add_row(self, cells: Iterable[Cell]) -> None:
        """Append one row; numbers are formatted compactly."""
        self.rows.append([_format(c) for c in cells])

    def render(self) -> str:
        """Render the aligned table as text."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                if i < len(widths):
                    widths[i] = max(widths[i], len(cell))
                else:
                    widths.append(len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format(cell: Cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
