"""Immutable 2-D point / vector type.

Coordinates are dimensionless floats; by library convention they are
interpreted as micrometres (µm) unless a function documents otherwise.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Tuple


class Point:
    """An immutable 2-D point supporting vector arithmetic.

    ``Point`` behaves both as a coordinate pair and as a free vector:

    >>> Point(1, 2) + Point(3, -1)
    Point(4.0, 1.0)
    >>> 2 * Point(1, 2)
    Point(2.0, 4.0)
    >>> Point(3, 4).norm()
    5.0
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    def __reduce__(self) -> Tuple:
        # The immutability guard above breaks the default slots-based
        # unpickling path; rebuild through the constructor instead.  The
        # engine's shards cross process boundaries as EBS1 payloads
        # (repro.core.jobfile.dumps_shard), not as pickled points; this
        # keeps user code's pickles of geometry (polygons, libraries)
        # working.
        return (Point, (self.x, self.y))

    # -- conversions -------------------------------------------------

    @classmethod
    def of(cls, value: "Point | Tuple[float, float] | Iterable[float]") -> "Point":
        """Coerce a ``Point`` or 2-sequence into a ``Point``."""
        if isinstance(value, Point):
            return value
        x, y = value
        return cls(x, y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index: int) -> float:
        return (self.x, self.y)[index]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Point | Tuple[float, float]") -> "Point":
        other = Point.of(other)
        return Point(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: "Point | Tuple[float, float]") -> "Point":
        other = Point.of(other)
        return Point(self.x - other.x, self.y - other.y)

    def __rsub__(self, other: "Point | Tuple[float, float]") -> "Point":
        other = Point.of(other)
        return Point(other.x - self.x, other.y - self.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    # -- geometry ----------------------------------------------------

    def cross(self, other: "Point | Tuple[float, float]") -> float:
        """Z-component of the 2-D cross product (signed parallelogram area)."""
        other = Point.of(other)
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance(self, other: "Point | Tuple[float, float]") -> float:
        """Euclidean distance to ``other``."""
        other = Point.of(other)
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit(self) -> "Point":
        """Unit vector in the same direction.

        Raises:
            ZeroDivisionError: for the zero vector.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)

    def rotated(self, angle_rad: float, about: "Point | None" = None) -> "Point":
        """Rotate counter-clockwise by ``angle_rad`` about ``about`` (origin)."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        ox, oy = (about.x, about.y) if about is not None else (0.0, 0.0)
        dx, dy = self.x - ox, self.y - oy
        return Point(ox + c * dx - s * dy, oy + s * dx + c * dy)

    def angle(self) -> float:
        """Polar angle ``atan2(y, x)`` in radians."""
        return math.atan2(self.y, self.x)

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Point):
            return self.x == other.x and self.y == other.y
        if isinstance(other, tuple) and len(other) == 2:
            return self.x == other[0] and self.y == other[1]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def almost_equals(
        self, other: "Point | Tuple[float, float]", tol: float = 1e-9
    ) -> bool:
        """True if both coordinates match within absolute tolerance ``tol``."""
        other = Point.of(other)
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"
