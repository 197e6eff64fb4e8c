"""Public boolean operations on polygon sets.

All operations accept two iterables of :class:`~repro.geometry.polygon.Polygon`
and return either trapezoids (:func:`boolean_trapezoids` — the native machine
representation) or reassembled polygons (:func:`boolean_polygons`).

Supported operations:

========= =========================================
``"or"``   union, A ∪ B
``"and"``  intersection, A ∩ B
``"sub"``  difference, A \\ B
``"xor"``  symmetric difference, A ⊕ B
========= =========================================

Coordinates are snapped to an integer database-unit grid before the sweep
(1 nm by default for µm layouts); output coordinates lie on that grid except
where slanted edges meet slab boundaries.

Two interchangeable kernels drive the sweep (``kernel=`` on
:func:`boolean_trapezoids`):

* ``"fast"`` (default) — the NumPy-vectorized exact-integer engine of
  :mod:`repro.geometry.scanline_fast`.  Bit-identical output; falls back
  to the reference automatically when coordinates exceed its exact
  range (|coord| > 2**53 database units).  Every such degradation is
  counted when the caller passes a
  :class:`~repro.geometry.scanline_fast.KernelFallbacks` instance —
  "fast" silently running at reference speed is a reportable event.
* ``"exact"`` — the original pure-Python
  :class:`fractions.Fraction` engine (:mod:`repro.geometry.scanline`),
  kept as the reference oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.polygon import Polygon
from repro.geometry.scanline import (
    DEFAULT_GRID,
    ScanEdge,
    edges_from_rings,
    evenodd,
    nonzero,
    require_positive,
    snap_polygon,
    sweep_trapezoids,
)
from repro.geometry.trapezoid import Trapezoid

_PREDICATES: Dict[str, Callable[[bool, bool], bool]] = {
    "or": lambda a, b: a or b,
    "and": lambda a, b: a and b,
    "sub": lambda a, b: a and not b,
    "xor": lambda a, b: a != b,
}

#: Kernel used when callers do not pass one explicitly.
DEFAULT_KERNEL = "fast"

_KERNELS = ("exact", "fast")


def _prepare_edges(
    polys_a: Iterable[Polygon],
    polys_b: Iterable[Polygon],
    grid: float,
) -> List[ScanEdge]:
    rings_a = [snap_polygon(p, grid) for p in polys_a]
    rings_b = [snap_polygon(p, grid) for p in polys_b]
    edges = edges_from_rings(rings_a, 0)
    edges.extend(edges_from_rings(rings_b, 1))
    return edges


def boolean_trapezoids(
    polys_a: Iterable[Polygon],
    polys_b: Iterable[Polygon],
    operation: str,
    grid: float = DEFAULT_GRID,
    fill_rule: str = "nonzero",
    merge: bool = True,
    kernel: Optional[str] = None,
    fallbacks=None,
) -> Sequence[Trapezoid]:
    """Boolean combination of two polygon sets as horizontal trapezoids.

    Args:
        polys_a: first operand polygon set (group A).
        polys_b: second operand polygon set (group B).
        operation: one of ``"or"``, ``"and"``, ``"sub"``, ``"xor"``.
        grid: database unit for coordinate snapping.
        fill_rule: ``"nonzero"`` or ``"evenodd"`` winding interpretation.
        merge: vertically merge compatible output trapezoids.
        kernel: ``"fast"`` (vectorized exact-integer engine, the
            default) or ``"exact"`` (the Fraction reference engine).
            Both produce bit-identical trapezoids; ``None`` selects
            :data:`DEFAULT_KERNEL`.
        fallbacks: optional
            :class:`~repro.geometry.scanline_fast.KernelFallbacks`
            accumulator; with ``kernel="fast"`` every degradation to a
            slower path increments its counters.  Ignored for
            ``kernel="exact"`` (an explicit choice is not a fallback).

    Returns:
        Disjoint trapezoids covering the result region — the fast
        kernel's as a :class:`~repro.geometry.vertex_array.FigureView`
        over its rows, the reference engine's as the list it builds.
    """
    try:
        predicate = _PREDICATES[operation]
    except KeyError:
        raise ValueError(
            f"unknown operation {operation!r}; expected one of {sorted(_PREDICATES)}"
        ) from None
    if fill_rule == "nonzero":
        rule = nonzero
    elif fill_rule == "evenodd":
        rule = evenodd
    else:
        raise ValueError(f"unknown fill rule {fill_rule!r}")
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if kernel not in _KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
        )
    require_positive("grid", grid)
    polys_a = list(polys_a)
    polys_b = list(polys_b)
    if kernel == "fast":
        from repro.geometry.scanline_fast import sweep_trapezoids_fast

        result = sweep_trapezoids_fast(
            polys_a, polys_b, operation,
            fill_rule=fill_rule, grid=grid, merge=merge,
            fallbacks=fallbacks,
        )
        if result is not None:
            return result
        # Coordinates exceed the fast kernel's exact-integer range;
        # fall through to the always-exact reference engine.
    edges = _prepare_edges(polys_a, polys_b, grid)
    return sweep_trapezoids(edges, predicate, rule, grid=grid, merge=merge)


def boolean_polygons(
    polys_a: Iterable[Polygon],
    polys_b: Iterable[Polygon],
    operation: str,
    grid: float = DEFAULT_GRID,
    fill_rule: str = "nonzero",
    kernel: Optional[str] = None,
) -> List[Polygon]:
    """Boolean combination returned as reassembled boundary polygons.

    Holes are emitted as clockwise rings; interpret the result with a
    winding fill rule.  For machine consumption prefer
    :func:`boolean_trapezoids`, which is canonical and hole-free.
    """
    traps = boolean_trapezoids(
        polys_a, polys_b, operation, grid=grid, fill_rule=fill_rule,
        merge=True, kernel=kernel,
    )
    return trapezoids_to_polygons(traps, grid=grid)


def union(polys: Iterable[Polygon], grid: float = DEFAULT_GRID) -> List[Polygon]:
    """Union of one polygon set (merges overlaps, resolves self-windings)."""
    return boolean_polygons(polys, [], "or", grid=grid)


# ---------------------------------------------------------------------------
# Trapezoid-set -> polygon reassembly
# ---------------------------------------------------------------------------

def _key(x: float, y: float, quantum: float) -> Tuple[int, int]:
    """Quantize a coordinate for exact endpoint matching."""
    return (round(x / quantum), round(y / quantum))


def trapezoids_to_polygons(
    traps: Sequence[Trapezoid], grid: float = DEFAULT_GRID
) -> List[Polygon]:
    """Stitch a disjoint trapezoid set back into boundary polygons.

    The boundary of the union of the trapezoids is recovered by cancelling
    interior edges: horizontal edges are split at all x-breakpoints of their
    scanline so opposite fragments cancel exactly, then the surviving
    directed edges are chained into closed loops.  Output outer boundaries
    wind counter-clockwise; holes wind clockwise.
    """
    if not traps:
        return []
    quantum = grid / 16.0

    # Directed edges, CCW per trapezoid: bottom, right, top, left.
    horizontals: Dict[int, List[Tuple[int, int, int]]] = {}
    sides: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}

    def add_side(p: Tuple[int, int], q: Tuple[int, int]) -> None:
        if p == q:
            return
        reverse = (q, p)
        if sides.get(reverse, 0) > 0:
            sides[reverse] -= 1
            if sides[reverse] == 0:
                del sides[reverse]
        else:
            sides[p, q] = sides.get((p, q), 0) + 1

    for t in traps:
        bl = _key(t.x_bottom_left, t.y_bottom, quantum)
        br = _key(t.x_bottom_right, t.y_bottom, quantum)
        tr = _key(t.x_top_right, t.y_top, quantum)
        tl = _key(t.x_top_left, t.y_top, quantum)
        if bl[0] != br[0]:
            horizontals.setdefault(bl[1], []).append((bl[0], br[0], +1))
        add_side(br, tr)
        if tr[0] != tl[0]:
            horizontals.setdefault(tr[1], []).append((tr[0], tl[0], -1))
        add_side(tl, bl)

    # Resolve horizontal coverage per scanline.
    directed: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for (p, q), count in sides.items():
        directed.extend([(p, q)] * count)
    for y, segments in horizontals.items():
        breakpoints = sorted(
            {s[0] for s in segments} | {s[1] for s in segments}
        )
        for i in range(len(breakpoints) - 1):
            x0, x1 = breakpoints[i], breakpoints[i + 1]
            cover = 0
            for sx, ex, sign in segments:
                lo, hi = min(sx, ex), max(sx, ex)
                if lo <= x0 and x1 <= hi:
                    cover += sign
            if cover > 0:
                directed.append(((x0, y), (x1, y)))
            elif cover < 0:
                directed.append(((x1, y), (x0, y)))

    # Chain directed edges into loops, choosing the sharpest left turn at
    # junctions so outer boundaries and holes separate cleanly.
    import math

    outgoing: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for p, q in directed:
        outgoing.setdefault(p, []).append(q)

    polygons: List[Polygon] = []
    while outgoing:
        start = next(iter(outgoing))
        loop = [start]
        prev_dir = None
        current = start
        while True:
            choices = outgoing.get(current)
            if not choices:
                break
            if prev_dir is None or len(choices) == 1:
                nxt = choices[0]
            else:
                def turn(candidate: Tuple[int, int]) -> float:
                    dx = candidate[0] - current[0]
                    dy = candidate[1] - current[1]
                    angle = math.atan2(dy, dx) - math.atan2(prev_dir[1], prev_dir[0])
                    while angle <= -math.pi:
                        angle += 2 * math.pi
                    while angle > math.pi:
                        angle -= 2 * math.pi
                    return angle
                nxt = max(choices, key=turn)
            choices.remove(nxt)
            if not choices:
                del outgoing[current]
            prev_dir = (nxt[0] - current[0], nxt[1] - current[1])
            current = nxt
            if current == start:
                break
            loop.append(current)
        if len(loop) >= 3:
            poly = Polygon(
                [(x * quantum, y * quantum) for x, y in loop]
            )
            try:
                polygons.append(poly.simplified(tol=quantum / 4.0))
            except ValueError:
                continue
    return polygons
