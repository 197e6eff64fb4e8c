"""Hierarchical fracturing: fracture each cell once, replicate figures.

Flat data preparation fractures every polygon of every expanded instance
— for an arrayed chip this repeats identical work thousands of times.
The period machines instead fractured each cell *once* and replicated
the resulting figures at machine-write time.  This module implements
that optimization:

* the hierarchy is read through
  :func:`~repro.layout.flatten.expand`, the expansion every door
  shares: per cell, parents first, its instances' composed ``(n, 6)``
  affine rows and their depth-first ranks — no :class:`Transform` or
  ``Point`` per placement.  An instance emits at most one group per
  layer key, so a key's figures sorted by rank are in walk order;
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

No :class:`Trapezoid` is built on the way: each layer's figures are
one :class:`~repro.geometry.vertex_array.FigureView` in walk order.

The speedup on array-dominated layouts is the figure-count ratio between
flattened and stored geometry (see experiment T3's compaction column);
the F8 bench family measures it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.fracture.base import Fracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.transform import Transform, identity_rows
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
from repro.layout.flatten import expand, layer_order
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

    def own(cell: Cell) -> list:
        """The ``(layer, polygons)`` groups ``cell`` emits per instance."""
        return [
            (layer, polys)
            for layer, polys in cell.polygons.items()
            if polys and (layers is None or layer in layers)
        ]

    placed = [entry for entry in expand(top) if own(entry[0])]
    counts: Dict[Layer, int] = {}
    for cell, rows, _ in placed:
        for layer, polys in own(cell):
            counts[layer] = counts.get(layer, 0) + len(rows) * len(polys)
    order = layer_order(placed, lambda cell: [layer for layer, _ in own(cell)])
    result.source_polygons_by_layer = {layer: counts[layer] for layer in order}
    result.source_polygons = sum(counts.values())
    # Per layer key, the figure pieces; per (rank, group), a fracture.
    keys = [None] if merge_layers and placed else order
    pieces: Dict[Optional[Layer], list] = {key: [] for key in keys}
    fractures: Dict[Tuple[int, int], tuple] = {}
    for cell, rows, ranks in placed:
        groups = own(cell)
        if merge_layers:
            groups = [(None, [poly for _, polys in groups for poly in polys])]
        keep = preserves_horizontal(rows)
        kept = rows[keep]
        moved = ~identity_rows(kept)
        for group, (key, polys) in enumerate(groups):
            if len(kept):
                first = (int(ranks[keep][0]), group)
                fractures[first] = (polys, None)
                result.cells_fractured += 1
                result.instances_reused += len(kept) - 1
                # An identity placement is the block itself, not 1.0 * it + 0.0.
                pieces[key].append((ranks[keep][~moved], first, None))
                pieces[key].append((ranks[keep][moved], first, kept[moved]))
            for rank, row in zip(ranks[~keep].tolist(), rows[~keep]):
                result.instances_fallback += 1
                fractures[rank, group] = (polys, row[None])
                pieces[key].append((np.array([rank]), (rank, group), None))
    blocks: Dict[Tuple[int, int], np.ndarray] = {}
    for at in sorted(fractures):  # the walk's order
        polys, row = fractures[at]
        if row is not None:
            polys = list(transform_polygons(polys, row))
        blocks[at] = trapezoid_array(fracturer.fracture(polys))
        result.kernel_fallbacks.add(fracturer.last_fallbacks)
    for key, placements in pieces.items():
        result.figures[key] = FigureView(_evaluate(placements, blocks))
    return result


def _evaluate(pieces, blocks: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
    """The figure block of one layer key in walk order.  Each piece is
    ``(ranks, fracture, rows)``: one fractured block placed at those
    instance ranks, as it is or under ``rows`` in one pass."""
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
