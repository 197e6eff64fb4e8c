"""Polygon offsetting (sizing): grow or shrink by a bias distance.

Mask making constantly biases geometry — etch compensation, proximity
pre-bias, overlap generation.  The implementation is the *boundary-band*
(Minkowski-with-a-square) construction, which is inversion-proof:

* **Grow** (``delta > 0``): union of the original polygons with, for
  every boundary edge, the quad swept by displacing that edge outward,
  plus a square cap at every vertex.  Dilation only ever adds area, so
  features and holes never invert; a hole narrower than ``2·delta``
  closes exactly.
* **Shrink** (``delta < 0``): erosion via the complement —
  ``P ⊖ r = P \\ dilate(window \\ P, r)`` — so features narrower than
  ``2·|delta|`` vanish instead of inverting.

Joins are *square* (the vertex cap), which is exact for rectilinear
geometry and overshoots a true round join at non-axis corners by at most
``r·(√2−1)``.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.geometry.boolean import boolean_polygons
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.scanline import DEFAULT_GRID


def _clean_vertices(polygon: Polygon) -> List[Point]:
    verts: List[Point] = []
    for v in polygon.vertices:
        if not verts or not v.almost_equals(verts[-1]):
            verts.append(v)
    if len(verts) >= 2 and verts[0].almost_equals(verts[-1]):
        verts.pop()
    return verts


def _boundary_band(polygons: Sequence[Polygon], radius: float) -> List[Polygon]:
    """Edge quads and vertex caps covering everything within ``radius``
    outside the given (winding-normalized) polygon set's boundary."""
    band: List[Polygon] = []
    for poly in polygons:
        verts = _clean_vertices(poly)
        n = len(verts)
        if n < 3:
            continue
        for i in range(n):
            p = verts[i]
            q = verts[(i + 1) % n]
            edge = q - p
            length = edge.norm()
            if length < 1e-12:
                continue
            normal = Point(edge.y, -edge.x) / length
            quad = Polygon(
                [p, q, q + normal * radius, p + normal * radius]
            ).normalized()
            band.append(quad)
            band.append(
                Polygon.rectangle(p.x - radius, p.y - radius,
                                  p.x + radius, p.y + radius)
            )
    return band


def offset(
    polygons: Union[Sequence[Polygon], Polygon],
    delta: float,
    grid: float = DEFAULT_GRID,
) -> List[Polygon]:
    """Offset a polygon set by ``delta`` (grow > 0, shrink < 0).

    Returns:
        The offset polygon set (outer rings CCW, holes CW); empty after
        a shrink that consumes every feature.
    """
    if isinstance(polygons, Polygon):
        polygons = [polygons]
    polygons = list(polygons)
    if not polygons:
        return []
    normalized = boolean_polygons(polygons, [], "or", grid=grid)
    if delta == 0.0 or not normalized:
        return normalized
    if delta > 0:
        band = _boundary_band(normalized, delta)
        return boolean_polygons(normalized + band, [], "or", grid=grid)

    radius = -delta
    boxes = [p.bounding_box() for p in normalized]
    x0 = min(b[0] for b in boxes) - 3 * radius
    y0 = min(b[1] for b in boxes) - 3 * radius
    x1 = max(b[2] for b in boxes) + 3 * radius
    y1 = max(b[3] for b in boxes) + 3 * radius
    window = Polygon.rectangle(x0, y0, x1, y1)
    complement = boolean_polygons([window], normalized, "sub", grid=grid)
    band = _boundary_band(complement, radius)
    if not band:
        return normalized
    return boolean_polygons(normalized, band, "sub", grid=grid)
