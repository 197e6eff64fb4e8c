"""Scanline (slab decomposition) engine over integer-snapped polygon sets.

This is the workhorse of the geometry kernel.  It implements boolean
operations between two polygon *sets* by sweeping a horizontal scanline:

1. All polygon vertices are snapped to an integer database-unit grid.
2. Candidate slab boundaries are collected: every vertex y plus the y of
   every edge/edge crossing (found with a bounding-box-pruned sweep and
   computed exactly with :class:`fractions.Fraction`).
3. Within a slab no two edges cross, so the edges active in the slab have a
   total left-to-right order.  Sweeping that order while accumulating
   winding numbers for group A and group B yields the interior intervals of
   any boolean combination, each emitted as one horizontal trapezoid.
4. Vertically compatible trapezoids are merged back into maximal trapezoids.

The same slab decomposition *is* the trapezoid fracture used by e-beam
pattern generators, which is why the 1970s data-preparation pipelines fused
the two steps.  Exact rational arithmetic keeps the engine robust without
external dependencies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.polygon import Polygon
from repro.geometry.predicates import segment_intersection_ys, snap
from repro.geometry.trapezoid import Trapezoid

IntPoint = Tuple[int, int]

#: Default database unit in layout units (1 nm when layout units are µm).
DEFAULT_GRID = 1e-3


def require_positive(name: str, value: float) -> None:
    """Refuse a grid, figure height or machine figure (spot, current,
    energy, …) that is not a positive finite number: ``ValueError`` in
    the words of :func:`repro.core.recipe.number_complaint`, which the
    geometry and machine packages cannot import."""
    if not -math.inf < value < math.inf:  # NaN compares false
        raise ValueError(f"{name} must be finite")
    if value <= 0:
        raise ValueError(f"{name} must be positive")


class ScanEdge:
    """A non-horizontal polygon edge prepared for the sweep.

    ``(x0, y0)`` is always the lower endpoint.  ``winding`` is ``+1`` if the
    original directed edge pointed upward and ``-1`` otherwise; ``group``
    identifies which operand (0 = A, 1 = B) the edge belongs to.
    """

    __slots__ = ("x0", "y0", "x1", "y1", "winding", "group")

    def __init__(
        self, x0: int, y0: int, x1: int, y1: int, winding: int, group: int
    ) -> None:
        self.x0 = x0
        self.y0 = y0
        self.x1 = x1
        self.y1 = y1
        self.winding = winding
        self.group = group

    def x_at(self, y: Fraction) -> Fraction:
        """Exact x coordinate at height ``y`` (must lie within the edge)."""
        dy = self.y1 - self.y0
        return Fraction(self.x0) + (y - self.y0) * (self.x1 - self.x0) / dy

    def __repr__(self) -> str:
        return (
            f"ScanEdge(({self.x0},{self.y0})->({self.x1},{self.y1}), "
            f"w={self.winding}, g={self.group})"
        )


def snap_polygon(polygon: Polygon, grid: float) -> List[IntPoint]:
    """Snap a polygon's vertices to integer grid coordinates.

    Consecutive duplicates created by the snap are dropped.
    """
    pts: List[IntPoint] = []
    for x, y in polygon.ring.tolist():
        p = (snap(x, grid), snap(y, grid))
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    return pts


def edges_from_rings(
    rings: Iterable[Sequence[IntPoint]], group: int
) -> List[ScanEdge]:
    """Build scan edges from integer vertex rings, dropping horizontals."""
    edges: List[ScanEdge] = []
    for ring in rings:
        n = len(ring)
        if n < 3:
            continue
        for i in range(n):
            ax, ay = ring[i]
            bx, by = ring[(i + 1) % n]
            if ay == by:
                continue
            if ay < by:
                edges.append(ScanEdge(ax, ay, bx, by, +1, group))
            else:
                edges.append(ScanEdge(bx, by, ax, ay, -1, group))
    return edges


def _crossing_ys(edges: List[ScanEdge]) -> List[Fraction]:
    """All y where any two edges intersect, via a y-sorted pruned sweep."""
    ys: List[Fraction] = []
    order = sorted(range(len(edges)), key=lambda i: edges[i].y0)
    active: List[int] = []
    for idx in order:
        e = edges[idx]
        still_active = []
        for j in active:
            o = edges[j]
            if o.y1 <= e.y0:
                continue
            still_active.append(j)
            # Bounding-box prune in x before the exact test.
            exl, exr = min(e.x0, e.x1), max(e.x0, e.x1)
            oxl, oxr = min(o.x0, o.x1), max(o.x0, o.x1)
            if exr < oxl or oxr < exl:
                continue
            ys.extend(
                segment_intersection_ys(
                    (e.x0, e.y0), (e.x1, e.y1), (o.x0, o.y0), (o.x1, o.y1)
                )
            )
        still_active.append(idx)
        active = still_active
    return ys


def slab_boundaries(edges: List[ScanEdge]) -> List[Fraction]:
    """Sorted, de-duplicated slab boundary ys for an edge set."""
    ys = {Fraction(e.y0) for e in edges}
    ys.update(Fraction(e.y1) for e in edges)
    ys.update(_crossing_ys(edges))
    return sorted(ys)


FillRule = Callable[[int], bool]


def nonzero(w: int) -> bool:
    """Nonzero winding fill rule."""
    return w != 0


def evenodd(w: int) -> bool:
    """Even-odd (parity) fill rule."""
    return (w & 1) == 1


def sweep_trapezoids(
    edges: List[ScanEdge],
    predicate: Callable[[bool, bool], bool],
    fill_rule: FillRule = nonzero,
    grid: float = DEFAULT_GRID,
    merge: bool = True,
) -> List[Trapezoid]:
    """Run the scanline sweep and emit interior trapezoids in layout units.

    Args:
        edges: prepared scan edges of both operand groups.
        predicate: ``predicate(inside_a, inside_b)`` decides interior-ness.
        fill_rule: winding-number interpretation for each group.
        grid: database unit used to convert back to layout units.
        merge: vertically merge compatible trapezoids before returning.

    Returns:
        Non-overlapping trapezoids covering the predicate's interior.
    """
    if not edges:
        return []
    boundaries = slab_boundaries(edges)
    if len(boundaries) < 2:
        return []

    order = sorted(range(len(edges)), key=lambda i: edges[i].y0)
    pointer = 0
    active: List[int] = []
    result: List[Trapezoid] = []

    for si in range(len(boundaries) - 1):
        y_lo = boundaries[si]
        y_hi = boundaries[si + 1]
        # Admit edges starting at or below this slab.
        while pointer < len(order) and edges[order[pointer]].y0 <= y_lo:
            active.append(order[pointer])
            pointer += 1
        # Retire edges that end at or below the slab bottom.
        active = [i for i in active if edges[i].y1 > y_lo]
        if not active:
            continue
        y_mid = (y_lo + y_hi) / 2
        spanning = [i for i in active if edges[i].y1 >= y_hi]
        if not spanning:
            continue
        keyed = sorted(
            ((edges[i].x_at(y_mid), i) for i in spanning), key=lambda t: t[0]
        )
        winding_a = 0
        winding_b = 0
        inside = False
        open_edge: Optional[ScanEdge] = None
        k = 0
        n = len(keyed)
        while k < n:
            x_here = keyed[k][0]
            # Fold all edges at the same x into one transition.
            first_idx = keyed[k][1]
            while k < n and keyed[k][0] == x_here:
                e = edges[keyed[k][1]]
                if e.group == 0:
                    winding_a += e.winding
                else:
                    winding_b += e.winding
                k += 1
            now_inside = predicate(fill_rule(winding_a), fill_rule(winding_b))
            if now_inside and not inside:
                open_edge = edges[first_idx]
            elif not now_inside and inside:
                close_edge = edges[keyed[k - 1][1]]
                trap = _emit(open_edge, close_edge, y_lo, y_hi, grid)
                if trap is not None:
                    result.append(trap)
                open_edge = None
            inside = now_inside
    if merge:
        result = merge_trapezoids(result)
    return result


def _emit(
    left: ScanEdge,
    right: ScanEdge,
    y_lo: Fraction,
    y_hi: Fraction,
    grid: float,
) -> Optional[Trapezoid]:
    """Build one trapezoid between two edges across a slab, in layout units."""
    xl0 = left.x_at(y_lo)
    xl1 = left.x_at(y_hi)
    xr0 = right.x_at(y_lo)
    xr1 = right.x_at(y_hi)
    if xr0 <= xl0 and xr1 <= xl1:
        return None
    # Guard against numerical inversions from coincident edges.
    xr0 = max(xr0, xl0)
    xr1 = max(xr1, xl1)
    y0f = float(y_lo) * grid
    y1f = float(y_hi) * grid
    if y1f <= y0f:
        # The slab's exact height is positive but smaller than one ulp
        # at this magnitude, so it renders as zero height in layout
        # units and carries no area.
        return None
    return Trapezoid(
        y0f,
        y1f,
        float(xl0) * grid,
        float(xr0) * grid,
        float(xl1) * grid,
        float(xr1) * grid,
    )


def merge_trapezoids(traps: List[Trapezoid], tol: float = 1e-9) -> List[Trapezoid]:
    """Merge vertically adjacent trapezoids whose sides continue straight.

    Two trapezoids merge when the top edge of the lower coincides with the
    bottom edge of the upper and both side slopes are preserved, so the merged
    figure is itself a valid trapezoid.  This undoes the slab fragmentation
    that the sweep introduces at every foreign vertex y.
    """
    if not traps:
        return []
    by_bottom: Dict[float, List[int]] = {}
    for idx, t in enumerate(traps):
        by_bottom.setdefault(round(t.y_bottom, 9), []).append(idx)

    consumed = [False] * len(traps)
    merged: List[Trapezoid] = []

    order = sorted(
        range(len(traps)),
        key=lambda i: (traps[i].y_bottom, traps[i].x_bottom_left),
    )
    for idx in order:
        if consumed[idx]:
            continue
        current = traps[idx]
        consumed[idx] = True
        while True:
            candidates = by_bottom.get(round(current.y_top, 9), [])
            partner = None
            for j in candidates:
                if consumed[j]:
                    continue
                upper = traps[j]
                if (
                    abs(upper.x_bottom_left - current.x_top_left) <= tol
                    and abs(upper.x_bottom_right - current.x_top_right) <= tol
                    and _slopes_match(current, upper, tol)
                ):
                    partner = j
                    break
            if partner is None:
                break
            upper = traps[partner]
            consumed[partner] = True
            current = Trapezoid(
                current.y_bottom,
                upper.y_top,
                current.x_bottom_left,
                current.x_bottom_right,
                upper.x_top_left,
                upper.x_top_right,
            )
        merged.append(current)
    return merged


def _slopes_match(lower: Trapezoid, upper: Trapezoid, tol: float) -> bool:
    """True if both side edges keep their slope across the shared boundary."""
    h_lo = lower.height
    h_up = upper.height
    left_lo = (lower.x_top_left - lower.x_bottom_left) / h_lo
    left_up = (upper.x_top_left - upper.x_bottom_left) / h_up
    right_lo = (lower.x_top_right - lower.x_bottom_right) / h_lo
    right_up = (upper.x_top_right - upper.x_bottom_right) / h_up
    return abs(left_lo - left_up) <= tol and abs(right_lo - right_up) <= tol
