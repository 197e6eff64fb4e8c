"""Hierarchical fracturing: fracture each cell once, replicate figures.

Flat data preparation fractures every polygon of every expanded instance
— for an arrayed chip this repeats identical work thousands of times.
The period machines instead fractured each cell *once* and replicated
the resulting figures at machine-write time.  This module implements
that optimization:

* a cell's local geometry is fractured once per layer and cached as
  its ``(N, 6)`` figure block;
* placements whose transform keeps horizontal edges horizontal
  (``c == 0`` in the affine matrix — translations, 180° rotations,
  mirrors, magnification; everything GDSII allows except 90°/270°
  rotations) reuse the cached block: the walk only records
  ``(block, transform)`` in visit order, and all placements of one
  cell are evaluated afterwards in one broadcast pass
  (:func:`~repro.geometry.vertex_array.transform_trapezoid_array`,
  bit-identical per figure to the scalar :func:`transform_trapezoid`);
* other placements fall back to fracturing the transformed polygons.

No :class:`Trapezoid` is built on the way: each layer's figures are one
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
from repro.geometry.transform import Transform
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


def preserves_horizontal(t: Transform, tol: float = 1e-12) -> bool:
    """True if ``t`` maps horizontal trapezoids to horizontal trapezoids."""
    return abs(t.c) <= tol and abs(t.d) > tol


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

    def walk(cell: Cell, transform: Transform, path: Tuple[str, ...]):
        """Yield ``(cell, layer key, polygons, transform)`` for every
        cell/layer group of the hierarchy, depth first, counting the
        source polygons on ``result``."""
        if cell.name in path:
            cycle = " -> ".join(path + (cell.name,))
            raise ValueError(f"reference cycle while fracturing: {cycle}")
        merged: List = []
        for layer, polys in cell.polygons.items():
            if not polys or (layers is not None and layer not in layers):
                continue
            result.source_polygons += len(polys)
            result.source_polygons_by_layer[layer] = (
                result.source_polygons_by_layer.get(layer, 0) + len(polys)
            )
            if merge_layers:
                merged.extend(polys)
            else:
                yield cell, layer, polys, transform
        if merged:
            yield cell, None, merged, transform
        for ref in cell.references:
            for placement in ref.placements():
                yield from walk(ref.cell, transform @ placement, path + (cell.name,))

    blocks: Dict[Tuple[int, Optional[Layer]], np.ndarray] = {}
    # Per layer key, the walk's (block, transform) placements in visit
    # order; the transform is None for a block that is placed as it is.
    placed: Dict[Optional[Layer], list] = {}
    for cell, key_layer, polys, transform in walk(top, Transform.identity(), ()):
        if preserves_horizontal(transform):
            key = (id(cell), key_layer)
            if key in blocks:
                result.instances_reused += 1
            else:
                blocks[key] = trapezoid_array(fracturer.fracture(polys))
                result.kernel_fallbacks.add(fracturer.last_fallbacks)
                result.cells_fractured += 1
            # An identity placement is the block itself, not 1.0 * it + 0.0.
            placement = (blocks[key], None if transform.is_identity() else transform)
        else:
            result.instances_fallback += 1
            moved = transform_polygons(polys, transform)
            placement = (trapezoid_array(fracturer.fracture(moved)), None)
            result.kernel_fallbacks.add(fracturer.last_fallbacks)
        placed.setdefault(key_layer, []).append(placement)
    for key_layer, placements in placed.items():
        result.figures[key_layer] = FigureView(_evaluate(placements))
    return result


def _evaluate(placements) -> np.ndarray:
    """The figure block of one layer's placements, in visit order —
    all transformed placements of one cached block in one pass."""
    sizes = np.array([len(block) for block, _ in placements])
    starts = np.cumsum(sizes) - sizes
    out = np.empty((int(sizes.sum()), 6))
    replicated: Dict[int, List[int]] = {}
    for position, (block, transform) in enumerate(placements):
        if transform is None:
            out[starts[position] : starts[position] + len(block)] = block
        else:
            replicated.setdefault(id(block), []).append(position)
    for positions in replicated.values():
        block = placements[positions[0]][0]
        rows = starts[positions][:, None] + np.arange(len(block))
        out[rows] = transform_trapezoid_array(
            block, [placements[position][1] for position in positions]
        )
    return out
