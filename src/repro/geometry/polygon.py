"""Simple polygon type used throughout the toolchain.

A :class:`Polygon` is a ring of vertices with implicit closure, held as
one read-only float64 ``(n, 2)`` array.  Self-intersecting inputs are
tolerated by the boolean engine (which interprets them with a fill
rule), but the predicates on this class assume a simple polygon.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.transform import Transform

Coordinate = "Point | Tuple[float, float]"


def _held(ring: np.ndarray, as_stored: bool = False) -> np.ndarray:
    """``ring`` by the constructor's rule, made read-only: one closing
    duplicate is dropped (exact ``==``) and at least three vertices must
    remain.  ``as_stored`` keeps the ring as given."""
    if not as_stored:
        if len(ring) >= 2 and ring[0].tolist() == ring[-1].tolist():
            ring = ring[:-1]
        if len(ring) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(ring)}")
    ring.flags.writeable = False
    return ring


def _unit(dx: float, dy: float) -> Tuple[float, float]:
    """``Point(dx, dy).unit()`` as a pair of floats."""
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return dx / norm, dy / norm


class Polygon:
    """A polygon given by its vertex ring (implicitly closed).

    Vertices may wind in either direction; :meth:`orientation` reports the
    winding and :meth:`normalized` re-winds counter-clockwise.

    The ring is stored once, as :attr:`ring`: a read-only float64
    ``(n, 2)`` array, whether the polygon was built from points or pairs,
    read from bytes (a GDSII ``XY`` record, an ``EBS1`` ring record) or
    moved by a transform.  :attr:`vertices` is the same ring as a tuple
    of :class:`Point`, built on each read; the stacking, serializing and
    transforming hot paths read the array and build no point.

    >>> unit = Polygon.rectangle(0, 0, 1, 1)
    >>> unit.area()
    1.0
    >>> unit.contains_point((0.5, 0.5))
    True
    """

    __slots__ = ("_ring",)

    def __init__(self, vertices: Iterable[Coordinate]) -> None:
        pairs = [(v.x, v.y) if isinstance(v, Point) else v for v in vertices]
        self._ring = _held(np.array(pairs, dtype=np.float64).reshape(len(pairs), 2))

    def __setstate__(self, state) -> None:
        # ``(None, {"_ring": ring})``; a pickle made before polygons held
        # an array carries ``{"vertices": [Point, ...]}`` instead.
        slots = state[1]
        if "vertices" in slots:
            self._ring = Polygon(slots["vertices"])._ring
        else:
            self._ring = _held(slots["_ring"], as_stored=True)

    @property
    def ring(self) -> np.ndarray:
        """The float64 ``(n, 2)`` vertex array.  Read-only."""
        return self._ring

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The vertex ring as :class:`Point` s, built from the array on
        each read (read it once per use)."""
        xs, ys = self._ring.T.tolist()
        return tuple(map(Point, xs, ys))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_array(cls, ring: np.ndarray, as_stored: bool = False) -> "Polygon":
        """Polygon over a float64 ``(n, 2)`` vertex ring, by the
        constructor's rule; ``as_stored`` keeps the ring exactly as given
        (a decoded ring record, validated by its reader).  The array is
        held as a read-only view, not copied."""
        polygon = cls.__new__(cls)
        polygon._ring = _held(ring.view(), as_stored)
        return polygon

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Polygon":
        """Axis-aligned rectangle spanning the two corners."""
        xa, xb = sorted((x0, x1))
        ya, yb = sorted((y0, y1))
        corners = ((xa, ya), (xb, ya), (xb, yb), (xa, yb))
        return cls.from_array(np.array(corners, dtype=np.float64))

    @classmethod
    def square(cls, center: Coordinate, side: float) -> "Polygon":
        """Axis-aligned square of side ``side`` centred on ``center``."""
        c = Point.of(center)
        h = side / 2.0
        return cls.rectangle(c.x - h, c.y - h, c.x + h, c.y + h)

    @classmethod
    def annulus_sector(
        cls,
        center: Coordinate,
        r_inner: float,
        r_outer: float,
        start_rad: float,
        end_rad: float,
        points_per_arc: int = 32,
    ) -> "Polygon":
        """Polygonal approximation of an annular sector (ring segment).

        Used by the Fresnel-zone-plate generator; the arc is sampled with
        ``points_per_arc`` vertices on each radius.
        """
        if r_outer <= r_inner:
            raise ValueError("r_outer must exceed r_inner")
        if points_per_arc < 2:
            raise ValueError("points_per_arc must be at least 2")
        c = Point.of(center)
        angles = [
            start_rad + (end_rad - start_rad) * i / (points_per_arc - 1)
            for i in range(points_per_arc)
        ]
        outer = [
            (c.x + r_outer * math.cos(a), c.y + r_outer * math.sin(a)) for a in angles
        ]
        inner = [
            (c.x + r_inner * math.cos(a), c.y + r_inner * math.sin(a))
            for a in reversed(angles)
        ]
        return cls(outer + inner)

    @classmethod
    def from_path(
        cls, points: Sequence[Coordinate], width: float
    ) -> "Polygon":
        """Expand an open centre-line path into a constant-width polygon.

        Uses mitred joins; suitable for Manhattan and gently turning wires.
        The arithmetic is :class:`Point`'s, on plain floats.
        """
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            raise ValueError("a path needs at least 2 points")
        if width <= 0:
            raise ValueError("path width must be positive")
        half = width / 2.0
        left: List[Tuple[float, float]] = []
        right: List[Tuple[float, float]] = []
        n = len(pts)
        for i, (x, y) in enumerate(pts):
            (ax, ay), (bx, by) = pts[max(i - 1, 0)], pts[min(i + 1, n - 1)]
            scale = half
            if 0 < i < n - 1:
                ix, iy = _unit(x - ax, y - ay)
                ox, oy = _unit(bx - x, by - y)
                ux, uy = ix + ox, iy + oy
                if math.hypot(ux, uy) < 1e-12:
                    # U-turn: fall back to the incoming normal.
                    ux, uy = ix, iy
                else:
                    ux, uy = _unit(ux, uy)
                    scale = half / max(ix * ux + iy * uy, 0.1)
            else:
                ux, uy = _unit(bx - ax, by - ay)
            nx, ny = -uy, ux
            left.append((x + nx * scale, y + ny * scale))
            right.append((x - nx * scale, y - ny * scale))
        return cls(left + right[::-1])

    # -- basic measures ---------------------------------------------------

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise winding)."""
        total = 0.0
        xs, ys = self._ring.T.tolist()
        n = len(xs)
        for i in range(n):
            j = (i + 1) % n
            total += xs[i] * ys[j] - xs[j] * ys[i]
        return total / 2.0

    def area(self) -> float:
        """Absolute enclosed area."""
        return abs(self.signed_area())

    def centroid(self) -> Point:
        """Area centroid (assumes a simple polygon)."""
        a2 = 0.0
        cx = 0.0
        cy = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            p = verts[i]
            q = verts[(i + 1) % n]
            cross = p.x * q.y - q.x * p.y
            a2 += cross
            cx += (p.x + q.x) * cross
            cy += (p.y + q.y) * cross
        if abs(a2) < 1e-300:
            # Degenerate: fall back to vertex mean.
            return Point(
                sum(v.x for v in verts) / n, sum(v.y for v in verts) / n
            )
        return Point(cx / (3.0 * a2), cy / (3.0 * a2))

    def orientation(self) -> int:
        """``+1`` for counter-clockwise winding, ``-1`` for clockwise."""
        return 1 if self.signed_area() >= 0 else -1

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the vertex ring."""
        xs, ys = self._ring.T.tolist()
        return (min(xs), min(ys), max(xs), max(ys))

    # -- predicates --------------------------------------------------------

    def contains_point(self, point: Coordinate, include_boundary: bool = True) -> bool:
        """Nonzero-winding point containment test."""
        p = Point.of(point)
        winding = 0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            # Boundary check: collinear and within the segment box.
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if abs(cross) < 1e-12 * max(1.0, a.distance(b)):
                if (
                    min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12
                    and min(a.y, b.y) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12
                ):
                    return include_boundary
            if a.y <= p.y:
                if b.y > p.y and cross > 0:
                    winding += 1
            else:
                if b.y <= p.y and cross < 0:
                    winding -= 1
        return winding != 0

    # -- operations ----------------------------------------------------------

    def normalized(self) -> "Polygon":
        """Counter-clockwise copy with duplicate consecutive vertices removed."""
        verts: List[Point] = []
        for v in self.vertices:
            if not verts or not v.almost_equals(verts[-1]):
                verts.append(v)
        if len(verts) >= 2 and verts[0].almost_equals(verts[-1]):
            verts.pop()
        if len(verts) < 3:
            raise ValueError("polygon degenerates after deduplication")
        poly = Polygon(verts)
        if poly.orientation() < 0:
            poly = Polygon(list(reversed(verts)))
        return poly

    def simplified(self, tol: float = 0.0) -> "Polygon":
        """Remove collinear vertices (within perpendicular distance ``tol``)."""
        verts = self.vertices
        n = len(verts)
        keep: List[Point] = []
        for i in range(n):
            a = verts[(i - 1) % n]
            b = verts[i]
            c = verts[(i + 1) % n]
            edge = c - a
            edge_len = edge.norm()
            if edge_len < 1e-15:
                continue
            deviation = abs(edge.cross(b - a)) / edge_len
            if deviation > tol:
                keep.append(b)
        if len(keep) < 3:
            return self
        return Polygon(keep)

    def transformed(self, transform: Transform) -> "Polygon":
        """Apply an affine transform; re-winds if the transform mirrors.

        The arithmetic of :meth:`Transform.apply` and
        :func:`~repro.geometry.vertex_array.transform_polygons`, on the
        ring's doubles as floats (cheaper than array operations on a
        few rows).
        """
        t = transform
        moved = [
            (t.a * x + t.b * y + t.e, t.c * x + t.d * y + t.f)
            for x, y in self._ring.tolist()
        ]
        if not transform.is_orientation_preserving():
            moved.reverse()
        return Polygon.from_array(np.array(moved))

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Copy shifted by ``(dx, dy)``."""
        return Polygon.from_array(self._ring + (dx, dy))

    def scaled(self, factor: float, about: Coordinate = (0.0, 0.0)) -> "Polygon":
        """Copy scaled isotropically about ``about``."""
        c = np.array(Point.of(about).as_tuple())
        return Polygon.from_array(c + (self._ring - c) * factor)

    def rotated(self, angle_rad: float, about: Coordinate = (0.0, 0.0)) -> "Polygon":
        """Copy rotated counter-clockwise about ``about``
        (:meth:`Point.rotated`'s arithmetic)."""
        cos, sin = math.cos(angle_rad), math.sin(angle_rad)
        ox, oy = Point.of(about).as_tuple()
        dx, dy = (self._ring - (ox, oy)).T
        return Polygon.from_array(
            np.column_stack((ox + cos * dx - sin * dy, oy + sin * dx + cos * dy))
        )

    # -- dunder -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return np.array_equal(self._ring, other._ring)

    def __repr__(self) -> str:
        head = ", ".join(f"({x:g}, {y:g})" for x, y in self._ring[:4].tolist())
        tail = ", ..." if len(self) > 4 else ""
        return f"Polygon([{head}{tail}], n={len(self)})"
