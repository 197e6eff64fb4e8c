"""Horizontal trapezoid — the native machine primitive.

Electron-beam pattern generators of the EBES/MEBES class consume figures that
are trapezoids with horizontal top and bottom edges (rectangles and triangles
being the degenerate cases).  The scanline boolean engine emits exactly this
shape, so the fracturing step is largely a by-product of the geometry
processing — the observation at the heart of 1970s e-beam data preparation.
"""

from __future__ import annotations

from typing import Tuple

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon


class Trapezoid:
    """A trapezoid with horizontal parallel sides.

    Attributes:
        y_bottom: y of the lower horizontal edge.
        y_top: y of the upper horizontal edge (``> y_bottom``).
        x_bottom_left / x_bottom_right: x-extent along the lower edge.
        x_top_left / x_top_right: x-extent along the upper edge.

    Either horizontal edge may have zero length, giving a triangle.
    """

    __slots__ = (
        "y_bottom",
        "y_top",
        "x_bottom_left",
        "x_bottom_right",
        "x_top_left",
        "x_top_right",
    )

    def __init__(
        self,
        y_bottom: float,
        y_top: float,
        x_bottom_left: float,
        x_bottom_right: float,
        x_top_left: float,
        x_top_right: float,
    ) -> None:
        if y_top <= y_bottom:
            raise ValueError("y_top must exceed y_bottom")
        if x_bottom_right < x_bottom_left or x_top_right < x_top_left:
            raise ValueError("right x must not be left of left x")
        self.y_bottom = float(y_bottom)
        self.y_top = float(y_top)
        self.x_bottom_left = float(x_bottom_left)
        self.x_bottom_right = float(x_bottom_right)
        self.x_top_left = float(x_top_left)
        self.x_top_right = float(x_top_right)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rectangle(
        cls, x0: float, y0: float, x1: float, y1: float
    ) -> "Trapezoid":
        """Axis-aligned rectangle as a trapezoid."""
        xa, xb = sorted((x0, x1))
        ya, yb = sorted((y0, y1))
        return cls(ya, yb, xa, xb, xa, xb)

    # -- measures ---------------------------------------------------------

    @property
    def height(self) -> float:
        """Vertical extent."""
        return self.y_top - self.y_bottom

    def area(self) -> float:
        """Exact trapezoid area."""
        bottom = self.x_bottom_right - self.x_bottom_left
        top = self.x_top_right - self.x_top_left
        return 0.5 * (bottom + top) * self.height

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)``."""
        return (
            min(self.x_bottom_left, self.x_top_left),
            self.y_bottom,
            max(self.x_bottom_right, self.x_top_right),
            self.y_top,
        )

    def centroid(self) -> Point:
        """Area centroid of the trapezoid."""
        return self.to_polygon().centroid()

    def is_rectangle(self, tol: float = 0.0) -> bool:
        """True if both slanted sides are vertical within ``tol``."""
        return (
            abs(self.x_bottom_left - self.x_top_left) <= tol
            and abs(self.x_bottom_right - self.x_top_right) <= tol
        )

    def is_degenerate(self, tol: float = 0.0) -> bool:
        """True if the trapezoid has (near-)zero area."""
        return self.area() <= tol

    # -- conversions --------------------------------------------------------

    def to_polygon(self) -> Polygon:
        """Counter-clockwise polygon; collapses zero-length edges."""
        pts = [
            (self.x_bottom_left, self.y_bottom),
            (self.x_bottom_right, self.y_bottom),
            (self.x_top_right, self.y_top),
            (self.x_top_left, self.y_top),
        ]
        unique = []
        for p in pts:
            if not unique or p != unique[-1]:
                unique.append(p)
        return Polygon(unique)

    def translated(self, dx: float, dy: float) -> "Trapezoid":
        """Copy shifted by ``(dx, dy)``."""
        return Trapezoid(
            self.y_bottom + dy,
            self.y_top + dy,
            self.x_bottom_left + dx,
            self.x_bottom_right + dx,
            self.x_top_left + dx,
            self.x_top_right + dx,
        )

    def split_at_y(self, y: float) -> Tuple["Trapezoid", "Trapezoid"]:
        """Cut into lower and upper trapezoids at interior height ``y``."""
        if not (self.y_bottom < y < self.y_top):
            raise ValueError("split height must be strictly inside")
        t = (y - self.y_bottom) / self.height
        xl = self.x_bottom_left + t * (self.x_top_left - self.x_bottom_left)
        xr = self.x_bottom_right + t * (self.x_top_right - self.x_bottom_right)
        lower = Trapezoid(
            self.y_bottom, y, self.x_bottom_left, self.x_bottom_right, xl, xr
        )
        upper = Trapezoid(y, self.y_top, xl, xr, self.x_top_left, self.x_top_right)
        return lower, upper

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trapezoid):
            return NotImplemented
        return (
            self.y_bottom == other.y_bottom
            and self.y_top == other.y_top
            and self.x_bottom_left == other.x_bottom_left
            and self.x_bottom_right == other.x_bottom_right
            and self.x_top_left == other.x_top_left
            and self.x_top_right == other.x_top_right
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.y_bottom,
                self.y_top,
                self.x_bottom_left,
                self.x_bottom_right,
                self.x_top_left,
                self.x_top_right,
            )
        )

    def __repr__(self) -> str:
        return (
            f"Trapezoid(y=[{self.y_bottom:g},{self.y_top:g}], "
            f"bottom=[{self.x_bottom_left:g},{self.x_bottom_right:g}], "
            f"top=[{self.x_top_left:g},{self.x_top_right:g}])"
        )
