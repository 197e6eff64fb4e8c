"""Cell placements: single references and arrays (GDSII SREF / AREF)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.transform import Transform, compose

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.layout.cell import Cell


class CellReference:
    """A single placement of a child cell (GDSII ``SREF``).

    The transform applies x-reflection, then magnification, then rotation,
    then translation — the GDSII order.
    """

    __slots__ = ("cell", "origin", "rotation_deg", "magnification", "x_reflection")

    def __init__(
        self,
        cell: "Cell",
        origin: Point | Tuple[float, float] = (0.0, 0.0),
        rotation_deg: float = 0.0,
        magnification: float = 1.0,
        x_reflection: bool = False,
    ) -> None:
        if magnification <= 0:
            raise ValueError("magnification must be positive")
        self.cell = cell
        self.origin = Point.of(origin)
        self.rotation_deg = float(rotation_deg)
        self.magnification = float(magnification)
        self.x_reflection = bool(x_reflection)

    def transform(self) -> Transform:
        """The placement transform of this reference."""
        return Transform.gdsii(
            origin=self.origin,
            rotation_deg=self.rotation_deg,
            magnification=self.magnification,
            x_reflection=self.x_reflection,
        )

    def placement_matrix(self) -> np.ndarray:
        """Every placement as one ``(n, 6)`` array of affine rows
        ``(a, b, c, d, e, f)``, in :meth:`placements` order."""
        t = self.transform()
        return np.array([(t.a, t.b, t.c, t.d, t.e, t.f)])

    def placements(self) -> Iterator[Transform]:
        """Iterate over all placements (a single one for ``CellReference``)."""
        for row in self.placement_matrix():
            yield Transform(*row)

    def placement_count(self) -> int:
        """Number of child instances this reference expands into."""
        return 1

    def __repr__(self) -> str:
        return (
            f"CellReference({self.cell.name!r}, origin={self.origin.as_tuple()}, "
            f"rot={self.rotation_deg}, mag={self.magnification}, "
            f"mirror={self.x_reflection})"
        )


class CellArray(CellReference):
    """A rectangular array of placements of a child cell (GDSII ``AREF``).

    ``columns`` placements along ``column_vector`` and ``rows`` along
    ``row_vector``; the per-instance transform (rotation, magnification,
    mirroring) is shared.
    """

    __slots__ = ("columns", "rows", "column_vector", "row_vector")

    def __init__(
        self,
        cell: "Cell",
        columns: int,
        rows: int,
        column_vector: Point | Tuple[float, float],
        row_vector: Point | Tuple[float, float],
        origin: Point | Tuple[float, float] = (0.0, 0.0),
        rotation_deg: float = 0.0,
        magnification: float = 1.0,
        x_reflection: bool = False,
    ) -> None:
        super().__init__(cell, origin, rotation_deg, magnification, x_reflection)
        if columns < 1 or rows < 1:
            raise ValueError("array dimensions must be at least 1x1")
        self.columns = int(columns)
        self.rows = int(rows)
        self.column_vector = Point.of(column_vector)
        self.row_vector = Point.of(row_vector)

    def placement_matrix(self) -> np.ndarray:
        """Every array element, row-major: ``translation(column_vector *
        col + row_vector * row) @ transform()``, bit for bit the
        :class:`Point`/:class:`Transform` arithmetic per element."""
        col = np.tile(np.arange(self.columns, dtype=float), self.rows)
        row = np.repeat(np.arange(self.rows, dtype=float), self.columns)
        shifts = np.zeros((len(col), 6))
        shifts[:, 0] = shifts[:, 3] = 1.0
        shifts[:, 4] = self.column_vector.x * col + self.row_vector.x * row
        shifts[:, 5] = self.column_vector.y * col + self.row_vector.y * row
        return compose(shifts, super().placement_matrix())

    def placement_count(self) -> int:
        """Total instances in the array."""
        return self.columns * self.rows

    def corner_positions(self) -> List[Point]:
        """Origins of the four corner instances (used by GDSII AREF I/O)."""
        o = self.origin
        return [
            o,
            o + self.column_vector * self.columns,
            o + self.row_vector * self.rows,
        ]

    def __repr__(self) -> str:
        return (
            f"CellArray({self.cell.name!r}, {self.columns}x{self.rows}, "
            f"col={self.column_vector.as_tuple()}, row={self.row_vector.as_tuple()}, "
            f"origin={self.origin.as_tuple()})"
        )
