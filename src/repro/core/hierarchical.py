"""Hierarchical fracturing: fracture each cell once, replicate figures.

Flat data preparation fractures every polygon of every expanded instance
— for an arrayed chip this repeats identical work thousands of times.
The period machines instead fractured each cell *once* and replicated
the resulting figures at machine-write time.  This module implements
that optimization:

* the hierarchy is expanded per reference edge, not per placement: a
  count of the groups each cell's subtree emits fixes every instance's
  position in the depth-first walk order, and each edge (parent cell →
  reference), visited once parents-first, carries all of its instances
  as one ``(n, 6)`` array of affine rows
  (:meth:`~repro.layout.reference.CellReference.placement_matrix`
  composed by :func:`~repro.geometry.transform.compose`, bit for bit
  the :class:`Transform` products the walk took);
* a cell's local geometry is fractured once per layer and cached as
  its ``(N, 6)`` figure block;
* placements whose transform keeps horizontal edges horizontal
  (``c == 0`` in the affine matrix — translations, 180° rotations,
  mirrors, magnification; everything GDSII allows except 90°/270°
  rotations) reuse the cached block: all placements of one block are
  evaluated in one broadcast pass
  (:func:`~repro.geometry.vertex_array.transform_trapezoid_array`,
  bit-identical per figure to the scalar :func:`transform_trapezoid`);
* other placements fall back to fracturing the transformed polygons,
  one by one in walk order.

No :class:`Trapezoid`, and no :class:`Transform` or ``Point`` per
placement, is built on the way: each layer's figures are one
:class:`~repro.geometry.vertex_array.FigureView` in walk order.

The speedup on array-dominated layouts is the figure-count ratio between
flattened and stored geometry (see experiment T3's compaction column);
the F8 bench family measures it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.fracture.base import Fracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.transform import Transform, compose
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    FigureView,
    transform_trapezoid_array,
    sequential_sum,
    transform_polygons,
    trapezoid_areas,
    trapezoid_array,
)
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.layout.library import Library


def transform_trapezoid(trap: Trapezoid, t: Transform) -> Trapezoid:
    """Apply a horizontality-preserving affine transform to a trapezoid.

    Requires ``t.c == 0`` (horizontal lines stay horizontal); shear
    (``b != 0``) and negative scales are handled by re-sorting the
    corners.

    Raises:
        ValueError: if the transform would tilt the parallel edges.
    """
    if abs(t.c) > 1e-12:
        raise ValueError("transform does not preserve horizontal edges")
    y0 = t.d * trap.y_bottom + t.f
    y1 = t.d * trap.y_top + t.f

    def map_x(x: float, y: float) -> float:
        return t.a * x + t.b * y + t.e

    bl = map_x(trap.x_bottom_left, trap.y_bottom)
    br = map_x(trap.x_bottom_right, trap.y_bottom)
    tl = map_x(trap.x_top_left, trap.y_top)
    tr = map_x(trap.x_top_right, trap.y_top)
    if y1 < y0:
        # Vertical flip: the old top edge becomes the bottom.
        y0, y1 = y1, y0
        bl, br, tl, tr = tl, tr, bl, br
    if bl > br:
        bl, br = br, bl
    if tl > tr:
        tl, tr = tr, tl
    return Trapezoid(y0, y1, bl, br, tl, tr)


def preserves_horizontal(t: "Transform | np.ndarray", tol: float = 1e-12):
    """True if ``t`` maps horizontal trapezoids to horizontal trapezoids;
    for an array of affine rows ``(a, b, c, d, e, f)``, that per row."""
    c, d = (t[..., 2], t[..., 3]) if isinstance(t, np.ndarray) else (t.c, t.d)
    return (abs(c) <= tol) & (abs(d) > tol)


@dataclass
class HierarchicalFractureResult:
    """Figures plus reuse statistics.

    Attributes:
        figures: per-layer flat figure lists, each one
            :class:`~repro.geometry.vertex_array.FigureView` in walk
            order.  A ``merge_layers`` fracture stores all figures
            under the single key ``None``.
        cells_fractured: distinct (cell, layer) fracture computations.
        instances_reused: placements served from the cache.
        instances_fallback: placements that required re-fracturing
            (90°/270° rotations).
        source_polygons: flattened polygon count the figure set covers
            (what a flat run would have fractured).
        source_polygons_by_layer: the same count split per layer.
        kernel_fallbacks: fast-kernel degradation counters accumulated
            over every fracture computation of the walk (cached-cell
            reuse never re-runs the kernel, so never re-counts).
    """

    figures: Dict[Layer, FigureView] = field(default_factory=dict)
    cells_fractured: int = 0
    instances_reused: int = 0
    instances_fallback: int = 0
    source_polygons: int = 0
    source_polygons_by_layer: Dict[Layer, int] = field(default_factory=dict)
    kernel_fallbacks: KernelFallbacks = field(default_factory=KernelFallbacks)

    def figure_count(self) -> int:
        return sum(len(v) for v in self.figures.values())

    def total_area(self) -> float:
        blocks = [view.rows for view in self.figures.values()]
        return sequential_sum(trapezoid_areas(FigureView.concat(blocks).rows))


def fracture_hierarchical(
    source: "Library | Cell",
    fracturer: Optional[Fracturer] = None,
    layers: Optional[Set[Layer]] = None,
    merge_layers: bool = False,
) -> HierarchicalFractureResult:
    """Fracture a hierarchy with per-cell caching.

    Args:
        source: library (unique top cell used) or cell.
        fracturer: fracturing strategy (trapezoids by default).
        layers: restrict to these layers (all populated layers when
            ``None``).
        merge_layers: fracture each cell's (selected) layers as one
            union instead of per layer, storing the figures under the
            single key ``None`` — the per-cell equivalent of the flat
            pipeline's all-layers-merged preparation, where geometry
            drawn on several layers exposes once, not once per layer.

    Note: per-cell fracture means overlaps *between* different instances
    are not merged (their figures may overlap).  For well-formed layouts
    (non-overlapping placements — the normal case for arrays) the result
    is identical to flat fracturing.
    """
    if fracturer is None:
        fracturer = TrapezoidFracturer()
    top = source.top_cell() if isinstance(source, Library) else source
    result = HierarchicalFractureResult()
    groups: Dict[int, list] = {}  # per cell, the (layer key, polygons) it emits
    emissions: Dict[int, int] = {}  # per cell, the groups of its subtree
    cells: List[Cell] = []  # in first-completion order: children first

    def count(cell: Cell, path: Tuple[str, ...]):
        """``(groups emitted, source polygons by layer)`` of one
        instance of ``cell``, subtree included, under the depth-first
        walk's cycle check (so once per path, not per placement)."""
        if cell.name in path:
            cycle = " -> ".join(path + (cell.name,))
            raise ValueError(f"reference cycle while fracturing: {cycle}")
        own = [
            (layer, polys)
            for layer, polys in cell.polygons.items()
            if polys and (layers is None or layer in layers)
        ]
        by_layer = {layer: len(polys) for layer, polys in own}
        if merge_layers and own:
            own = [(None, [poly for _, polys in own for poly in polys])]
        groups[id(cell)] = own
        emitted = len(own)
        for ref in cell.references:
            n = ref.placement_count()
            below, child_layers = count(ref.cell, path + (cell.name,))
            emitted += n * below
            for layer, polygons in child_layers.items():
                by_layer[layer] = by_layer.get(layer, 0) + n * polygons
        if id(cell) not in emissions:
            cells.append(cell)
        emissions[id(cell)] = emitted
        return emitted, by_layer

    _, result.source_polygons_by_layer = count(top, ())
    result.source_polygons = sum(result.source_polygons_by_layer.values())
    # Per cell, the (affine rows, walk positions) of its instances from
    # every parent edge; a position is that of the instance's first group.
    arrivals = {id(top): [(_IDENTITY, np.zeros(1, np.int64))]}
    fractures: Dict[int, tuple] = {}  # walk position -> (polygons, row)
    # Layer keys in the walk's order of first emission.
    keys = [None] if merge_layers else result.source_polygons_by_layer
    placed = {key: [] for key in keys if result.source_polygons}
    for cell in reversed(cells):
        rows, positions = map(np.concatenate, zip(*arrivals.pop(id(cell))))
        order = np.argsort(positions)
        rows, positions = rows[order], positions[order]
        keep = preserves_horizontal(rows)
        kept = rows[keep]
        moved = ~np.all(np.abs(kept - _IDENTITY) <= 1e-12, axis=1)
        for offset, (key, polys) in enumerate(groups[id(cell)]):
            at = positions + offset
            if len(kept):
                first = int(at[keep][0])
                fractures[first] = (polys, None)
                result.cells_fractured += 1
                result.instances_reused += len(kept) - 1
                # An identity placement is the block itself, not 1.0 * it + 0.0.
                placed[key].append((at[keep][~moved], first, None))
                placed[key].append((at[keep][moved], first, kept[moved]))
            for position, row in zip(at[~keep].tolist(), rows[~keep].tolist()):
                result.instances_fallback += 1
                fractures[position] = (polys, row)
                placed[key].append((np.array([position]), position, None))
        offset = len(groups[id(cell)])
        for ref in cell.references:
            span, matrix = emissions[id(ref.cell)], ref.placement_matrix()
            child = compose(rows[:, None], matrix[None]).reshape(-1, 6)
            at = positions[:, None] + offset + span * np.arange(len(matrix))
            arrivals.setdefault(id(ref.cell), []).append((child, at.ravel()))
            offset += span * len(matrix)
    blocks: Dict[int, np.ndarray] = {}
    for position in sorted(fractures):  # the walk's order
        polys, row = fractures[position]
        if row is not None:
            polys = transform_polygons(polys, Transform(*row))
        blocks[position] = trapezoid_array(fracturer.fracture(polys))
        result.kernel_fallbacks.add(fracturer.last_fallbacks)
    for key, pieces in placed.items():
        result.figures[key] = FigureView(_evaluate(pieces, blocks))
    return result


_IDENTITY = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])


def _evaluate(pieces, blocks: Dict[int, np.ndarray]) -> np.ndarray:
    """The figure block of one layer key in walk order.  Each piece is
    ``(positions, fracture position, rows)``: one fractured block placed
    at those walk positions, as it is or under ``rows`` in one pass."""
    pieces = [piece for piece in pieces if len(piece[0])]
    positions = np.concatenate([at for at, _, _ in pieces])
    sizes = np.concatenate([np.full(len(at), len(blocks[b])) for at, b, _ in pieces])
    order = np.argsort(positions)
    starts = np.empty_like(sizes)
    starts[order] = np.cumsum(sizes[order]) - sizes[order]
    out = np.empty((int(sizes.sum()), 6))
    done = 0
    for at, b, rows in pieces:
        block = blocks[b]
        where = starts[done : done + len(at), None] + np.arange(len(block))
        done += len(at)
        out[where] = block if rows is None else transform_trapezoid_array(block, rows)
    return out
