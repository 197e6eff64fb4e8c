"""Simple polygon type used throughout the toolchain.

A :class:`Polygon` is an ordered list of vertices with implicit closure.
Self-intersecting inputs are tolerated by the boolean engine (which
interprets them with a fill rule), but the predicates on this class assume a
simple polygon.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.transform import Transform

Coordinate = "Point | Tuple[float, float]"


class Polygon:
    """A polygon given by its vertex ring (implicitly closed).

    Vertices may wind in either direction; :meth:`orientation` reports the
    winding and :meth:`normalized` re-winds counter-clockwise.

    A polygon holds its ring in one of two forms, never both:

    * **points** — ``vertices``, a list of :class:`Point`; what the
      constructor and every geometric operation build;
    * **array** — ``ring``, one float64 ``(n, 2)`` array; what a ring
      read from bytes (a GDSII ``XY`` record, an ``EBS1`` ring record)
      or moved by :func:`~repro.geometry.vertex_array.transform_polygons`
      carries (:meth:`from_array`).

    The first read of ``vertices`` on an array-backed polygon builds the
    points from the array's doubles and drops the array, so the list is
    the one source of truth from then on (in-place edits stick).
    ``ring`` is ``None`` on a points-backed polygon.  ``len``,
    :meth:`bounding_box` and the stacking/serializing hot path read the
    array without building points.

    >>> unit = Polygon.rectangle(0, 0, 1, 1)
    >>> unit.area()
    1.0
    >>> unit.contains_point((0.5, 0.5))
    True
    """

    # ``_ring`` is runtime state, not configuration, to the cache's
    # fingerprint: a polygon hashes as its ``vertices`` in either form.
    __slots__ = ("vertices", "_ring")

    def __init__(self, vertices: Iterable[Coordinate]) -> None:
        pts = [Point.of(v) for v in vertices]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(pts)}")
        self.vertices: List[Point] = pts
        self._ring = None

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``_ring`` on a polygon from an
        # older pickle, or ``vertices`` on an array-backed one.
        if name == "_ring":
            return None
        ring = self._ring
        if name != "vertices" or ring is None:
            raise AttributeError(name)
        xs, ys = ring.T.tolist()
        self.vertices = list(map(Point, xs, ys))
        self._ring = None
        return self.vertices

    def __getstate__(self):
        # The form the polygon is in, without building points: a
        # points-backed polygon pickles as it always has.
        if self._ring is not None:
            return None, {"_ring": self._ring}
        return None, {"vertices": self.vertices}

    @property
    def ring(self):
        """The float64 ``(n, 2)`` vertex array of an array-backed
        polygon, ``None`` on a points-backed one.  Read-only."""
        return self._ring

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_array(cls, ring, as_stored: bool = False) -> "Polygon":
        """Array-backed polygon over a float64 ``(n, 2)`` vertex ring.

        By the constructor's rule, one closing duplicate is dropped
        (exact ``==``) and at least three vertices must remain;
        ``as_stored`` keeps the ring exactly as given (a decoded ring
        record, validated by its reader).  The array is held, not copied.
        """
        if not as_stored:
            if len(ring) >= 2 and (ring[0] == ring[-1]).all():
                ring = ring[:-1]
            if len(ring) < 3:
                raise ValueError(f"polygon needs at least 3 vertices, got {len(ring)}")
        polygon = cls.__new__(cls)
        polygon._ring = ring
        return polygon

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Polygon":
        """Axis-aligned rectangle spanning the two corners."""
        xa, xb = sorted((x0, x1))
        ya, yb = sorted((y0, y1))
        return cls([(xa, ya), (xb, ya), (xb, yb), (xa, yb)])

    @classmethod
    def square(cls, center: Coordinate, side: float) -> "Polygon":
        """Axis-aligned square of side ``side`` centred on ``center``."""
        c = Point.of(center)
        h = side / 2.0
        return cls.rectangle(c.x - h, c.y - h, c.x + h, c.y + h)

    @classmethod
    def regular(
        cls, center: Coordinate, radius: float, sides: int, phase_rad: float = 0.0
    ) -> "Polygon":
        """Regular polygon with ``sides`` vertices on a circle of ``radius``."""
        if sides < 3:
            raise ValueError("a regular polygon needs at least 3 sides")
        c = Point.of(center)
        step = 2.0 * math.pi / sides
        return cls(
            [
                (
                    c.x + radius * math.cos(phase_rad + i * step),
                    c.y + radius * math.sin(phase_rad + i * step),
                )
                for i in range(sides)
            ]
        )

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
        """
        pts = [Point.of(p) for p in points]
        if len(pts) < 2:
            raise ValueError("a path needs at least 2 points")
        if width <= 0:
            raise ValueError("path width must be positive")
        half = width / 2.0
        left: List[Point] = []
        right: List[Point] = []
        n = len(pts)
        for i in range(n):
            if i == 0:
                d = (pts[1] - pts[0]).unit()
                normal = d.perpendicular()
                left.append(pts[0] + normal * half)
                right.append(pts[0] - normal * half)
            elif i == n - 1:
                d = (pts[-1] - pts[-2]).unit()
                normal = d.perpendicular()
                left.append(pts[-1] + normal * half)
                right.append(pts[-1] - normal * half)
            else:
                d_in = (pts[i] - pts[i - 1]).unit()
                d_out = (pts[i + 1] - pts[i]).unit()
                bisector = d_in + d_out
                if bisector.norm() < 1e-12:
                    # U-turn: fall back to the incoming normal.
                    normal = d_in.perpendicular()
                    left.append(pts[i] + normal * half)
                    right.append(pts[i] - normal * half)
                    continue
                bisector = bisector.unit()
                miter_normal = bisector.perpendicular()
                cos_half = d_in.dot(bisector)
                scale = half / max(cos_half, 0.1)
                left.append(pts[i] + miter_normal * scale)
                right.append(pts[i] - miter_normal * scale)
        return cls(left + list(reversed(right)))

    # -- basic measures ---------------------------------------------------

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise winding)."""
        total = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return total / 2.0

    def area(self) -> float:
        """Absolute enclosed area."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total boundary length."""
        verts = self.vertices
        n = len(verts)
        return sum(verts[i].distance(verts[(i + 1) % n]) for i in range(n))

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
        ring = self._ring
        if ring is not None:
            (x0, y0), (x1, y1) = ring.min(0).tolist(), ring.max(0).tolist()
            return (x0, y0, x1, y1)
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
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

    def is_convex(self) -> bool:
        """True if all turns share one sign (collinear runs allowed)."""
        verts = self.vertices
        n = len(verts)
        sign = 0
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            c = verts[(i + 2) % n]
            cross = (b - a).cross(c - b)
            if abs(cross) < 1e-12:
                continue
            s = 1 if cross > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                return False
        return True

    def is_rectilinear(self, tol: float = 1e-9) -> bool:
        """True if every edge is axis-parallel (Manhattan geometry)."""
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            if abs(a.x - b.x) > tol and abs(a.y - b.y) > tol:
                return False
        return True

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
        """Apply an affine transform; re-winds if the transform mirrors."""
        verts = transform.apply_many(self.vertices)
        if not transform.is_orientation_preserving():
            verts = list(reversed(verts))
        return Polygon(verts)

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Copy shifted by ``(dx, dy)``."""
        return Polygon([Point(v.x + dx, v.y + dy) for v in self.vertices])

    def scaled(self, factor: float, about: Coordinate = (0.0, 0.0)) -> "Polygon":
        """Copy scaled isotropically about ``about``."""
        c = Point.of(about)
        return Polygon(
            [
                Point(c.x + (v.x - c.x) * factor, c.y + (v.y - c.y) * factor)
                for v in self.vertices
            ]
        )

    def rotated(self, angle_rad: float, about: Coordinate = (0.0, 0.0)) -> "Polygon":
        """Copy rotated counter-clockwise about ``about``."""
        c = Point.of(about)
        return Polygon([v.rotated(angle_rad, c) for v in self.vertices])

    def clip_half_plane(
        self, anchor: Coordinate, normal: Coordinate
    ) -> "Polygon | None":
        """Sutherland–Hodgman clip against ``dot(p - anchor, normal) >= 0``.

        Returns ``None`` if the polygon lies entirely outside.
        """
        a = Point.of(anchor)
        n = Point.of(normal)
        output: List[Point] = []
        verts = self.vertices
        count = len(verts)
        for i in range(count):
            current = verts[i]
            nxt = verts[(i + 1) % count]
            cur_in = (current - a).dot(n) >= 0
            nxt_in = (nxt - a).dot(n) >= 0
            if cur_in:
                output.append(current)
            if cur_in != nxt_in:
                denom = (nxt - current).dot(n)
                if abs(denom) > 1e-300:
                    t = (a - current).dot(n) / denom
                    output.append(current + (nxt - current) * t)
        cleaned: List[Point] = []
        for v in output:
            if not cleaned or not v.almost_equals(cleaned[-1], tol=1e-12):
                cleaned.append(v)
        if len(cleaned) >= 2 and cleaned[0].almost_equals(cleaned[-1], tol=1e-12):
            cleaned.pop()
        if len(cleaned) < 3:
            return None
        return Polygon(cleaned)

    def clip_box(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> "Polygon | None":
        """Clip against an axis-aligned box (four half-plane clips)."""
        xa, xb = sorted((x0, x1))
        ya, yb = sorted((y0, y1))
        poly: "Polygon | None" = self
        for anchor, normal in (
            ((xa, ya), (1.0, 0.0)),
            ((xb, yb), (-1.0, 0.0)),
            ((xa, ya), (0.0, 1.0)),
            ((xb, yb), (0.0, -1.0)),
        ):
            if poly is None:
                return None
            poly = poly.clip_half_plane(anchor, normal)
        return poly

    # -- dunder -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices if self._ring is None else self._ring)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __repr__(self) -> str:
        head = ", ".join(f"({v.x:g}, {v.y:g})" for v in self.vertices[:4])
        tail = ", ..." if len(self.vertices) > 4 else ""
        return f"Polygon([{head}{tail}], n={len(self.vertices)})"
