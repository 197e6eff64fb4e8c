"""The layout cell: polygons per layer plus child references."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.geometry.polygon import Polygon
from repro.layout.layer import DEFAULT_LAYER, Layer
from repro.layout.reference import CellArray, CellReference


class Cell:
    """A named layout cell.

    A cell owns polygons organized by :class:`~repro.layout.layer.Layer`
    and placements of child cells.  Cells are mutable builders; the
    flattener and pipeline treat them as read-only inputs.

    >>> cell = Cell("inv")
    >>> _ = cell.add_polygon(Polygon.rectangle(0, 0, 1, 2), layer=(8, 0))
    >>> cell.polygon_count()
    1
    """

    __slots__ = ("name", "polygons", "references")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("cell name must be non-empty")
        self.name = name
        self.polygons: Dict[Layer, List[Polygon]] = {}
        self.references: List[CellReference] = []

    # -- building -------------------------------------------------------

    def add_polygon(
        self, polygon: Polygon, layer: "Layer | int | Tuple[int, int]" = DEFAULT_LAYER
    ) -> "Cell":
        """Add one polygon on ``layer``; returns self for chaining."""
        key = Layer.of(layer)
        self.polygons.setdefault(key, []).append(polygon)
        return self

    def add_rectangle(
        self,
        x0: float,
        y0: float,
        x1: float,
        y1: float,
        layer: "Layer | int | Tuple[int, int]" = DEFAULT_LAYER,
    ) -> "Cell":
        """Convenience: add an axis-aligned rectangle."""
        return self.add_polygon(Polygon.rectangle(x0, y0, x1, y1), layer)

    def add_reference(self, reference: CellReference) -> "Cell":
        """Place a child cell; returns self for chaining."""
        self.references.append(reference)
        return self

    def instantiate(
        self,
        child: "Cell",
        origin: Tuple[float, float] = (0.0, 0.0),
        rotation_deg: float = 0.0,
        magnification: float = 1.0,
        x_reflection: bool = False,
    ) -> "Cell":
        """Convenience: place ``child`` with GDSII transform parameters."""
        return self.add_reference(
            CellReference(child, origin, rotation_deg, magnification, x_reflection)
        )

    def instantiate_array(
        self,
        child: "Cell",
        columns: int,
        rows: int,
        pitch_x: float,
        pitch_y: float,
        origin: Tuple[float, float] = (0.0, 0.0),
    ) -> "Cell":
        """Convenience: place a rectangular array of ``child``."""
        return self.add_reference(
            CellArray(
                child,
                columns,
                rows,
                column_vector=(pitch_x, 0.0),
                row_vector=(0.0, pitch_y),
                origin=origin,
            )
        )

    # -- queries -----------------------------------------------------------

    def layers(self) -> List[Layer]:
        """Layers with polygons in this cell (not descendants), sorted."""
        return sorted(self.polygons)

    def polygon_count(self) -> int:
        """Polygons directly in this cell."""
        return sum(len(v) for v in self.polygons.values())

    def vertex_count(self) -> int:
        """Vertices of polygons directly in this cell."""
        return sum(len(p) for v in self.polygons.values() for p in v)

    def reference_count(self) -> int:
        """Direct child references (arrays count once)."""
        return len(self.references)

    def instance_count(self) -> int:
        """Direct child instances (arrays expanded)."""
        return sum(r.placement_count() for r in self.references)

    def children(self) -> List["Cell"]:
        """Distinct directly referenced child cells."""
        seen: Dict[str, Cell] = {}
        for ref in self.references:
            seen.setdefault(ref.cell.name, ref.cell)
        return list(seen.values())

    def bounding_box(self) -> Optional[Tuple[float, float, float, float]]:
        """Bounding box including all descendants, or None when empty."""
        boxes = []
        for polys in self.polygons.values():
            boxes.extend(p.bounding_box() for p in polys)
        for ref in self.references:
            child_box = ref.cell.bounding_box()
            if child_box is None:
                continue
            corners = [
                (child_box[0], child_box[1]),
                (child_box[2], child_box[1]),
                (child_box[2], child_box[3]),
                (child_box[0], child_box[3]),
            ]
            for transform in ref.placements():
                pts = transform.apply_many(corners)
                boxes.append(
                    (
                        min(p.x for p in pts),
                        min(p.y for p in pts),
                        max(p.x for p in pts),
                        max(p.y for p in pts),
                    )
                )
        if not boxes:
            return None
        return (
            min(b[0] for b in boxes),
            min(b[1] for b in boxes),
            max(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    def area(self, layer: "Layer | int | Tuple[int, int] | None" = None) -> float:
        """Raw polygon area of this cell (no descendants, overlaps double)."""
        if layer is None:
            groups: Iterator[List[Polygon]] = iter(self.polygons.values())
        else:
            groups = iter([self.polygons.get(Layer.of(layer), [])])
        return sum(p.area() for group in groups for p in group)

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, polygons={self.polygon_count()}, "
            f"references={len(self.references)})"
        )
