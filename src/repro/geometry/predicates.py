"""Low-level geometric predicates on exact integer coordinates.

The boolean engine snaps all coordinates to an integer database-unit grid, so
these predicates operate on integer tuples and are exact (Python integers do
not overflow).  Points are plain ``(x, y)`` tuples of ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.polygon import Polygon

IntPoint = Tuple[int, int]


def orientation(p: IntPoint, q: IntPoint, r: IntPoint) -> int:
    """Sign of the signed area of triangle ``p, q, r``.

    Returns ``+1`` for counter-clockwise, ``-1`` for clockwise and ``0`` for
    collinear points.  Exact for integer inputs.
    """
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def segment_intersection_ys(
    p1: IntPoint, p2: IntPoint, q1: IntPoint, q2: IntPoint
) -> List[Fraction]:
    """Y-coordinates where two segments cross, as exact fractions.

    For a proper (transversal) crossing this is a single y value; for
    collinear overlap the endpoint ys of the overlap are returned.  Used by
    the scanline engine to place slab boundaries so that within a slab no two
    active edges cross.
    """
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = q2[0] - q1[0], q2[1] - q1[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        # Parallel.  Check for collinear overlap.
        if orientation(p1, p2, q1) != 0:
            return []
        ys = []
        lo = max(min(p1[1], p2[1]), min(q1[1], q2[1]))
        hi = min(max(p1[1], p2[1]), max(q1[1], q2[1]))
        if lo <= hi:
            ys.extend([Fraction(lo), Fraction(hi)])
        return ys
    t_num = (q1[0] - p1[0]) * d2y - (q1[1] - p1[1]) * d2x
    u_num = (q1[0] - p1[0]) * d1y - (q1[1] - p1[1]) * d1x
    t = Fraction(t_num, denom)
    u = Fraction(u_num, denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        y = Fraction(p1[1]) + t * d1y
        return [y]
    return []


def snap(value: float, grid: float) -> int:
    """Snap a float coordinate to the integer grid with half-up rounding."""
    scaled = value / grid
    return int(scaled + 0.5) if scaled >= 0 else -int(-scaled + 0.5)


def ring_collapses(xy: Sequence[int]) -> bool:
    """True if the integer ring ``[x0, y0, x1, y1, …]`` encloses no area.

    The layout writers' one degeneracy rule: a polygon whose vertices,
    snapped to the file's grid, fill nothing under the boolean engine's
    nonzero rule (a sub-grid sliver, repeated or collinear points) is
    not a figure, and a record for it need not survive a read → write
    round trip byte for byte — the writers reject it instead of
    emitting it.  A non-zero signed shoelace area settles it at once;
    a zero one may still be a self-intersecting ring whose lobes cancel
    (a bow-tie), so only then is the engine asked, on the ring's own
    integer grid.  Exact: Python integers do not overflow, and the
    engine holds every coordinate within ±2⁵³ (any GDSII record) as is.
    The ring may or may not repeat its first point at the end.
    """
    xs, ys = xy[0::2], xy[1::2]
    doubled = xs[-1] * ys[0] - xs[0] * ys[-1]
    for i in range(len(xs) - 1):
        doubled += xs[i] * ys[i + 1] - xs[i + 1] * ys[i]
    if doubled != 0:
        return False
    # Imported here: the engine's scanline imports this module.
    from repro.geometry.boolean import boolean_trapezoids

    ring = Polygon.from_array(
        np.array(xy, dtype=np.float64).reshape(-1, 2), as_stored=True
    )
    return not len(boolean_trapezoids([ring], [], "or", grid=1.0))
