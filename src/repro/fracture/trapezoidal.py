"""Trapezoidal fracture via the scanline boolean engine.

The union sweep of the geometry kernel already produces a disjoint
horizontal-trapezoid decomposition; this fracturer exposes it as a strategy
with the machine-relevant knobs (figure height limit, vertical merging,
kernel selection).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.fracture.base import Fracturer
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.scanline import DEFAULT_GRID, require_positive
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import FigureView, trapezoid_array


class TrapezoidFracturer(Fracturer):
    """Fracture polygons into horizontal trapezoids.

    Args:
        grid: database unit for the underlying boolean sweep.
        max_height: optional figure height cap; taller trapezoids are
            sliced horizontally (deflection amplifiers of early machines
            limited figure height to the minor scan span).
        merge: vertically merge compatible trapezoids before the height
            cap is applied.  Disabling this reproduces the raw slab
            fragmentation for the T2 ablation.
        kernel: scanline kernel — ``"fast"`` (vectorized exact-integer
            engine, the default) or ``"exact"`` (the Fraction reference
            engine).  Output is bit-identical either way; the knob
            exists for oracle testing and benchmarking.
    """

    def __init__(
        self,
        grid: float = DEFAULT_GRID,
        max_height: Optional[float] = None,
        merge: bool = True,
        kernel: str = "fast",
    ) -> None:
        require_positive("grid", grid)
        if max_height is not None:
            require_positive("max_height", max_height)
        if kernel not in ("exact", "fast"):
            raise ValueError(
                f"kernel must be 'exact' or 'fast', got {kernel!r}"
            )
        self.grid = grid
        self.max_height = max_height
        self.merge = merge
        self.kernel = kernel

    def fracture(self, polygons: Iterable[Polygon]) -> FigureView:
        """Disjoint trapezoid cover of the union of ``polygons``: the
        fast kernel's rows as they are; a reference-engine list, or
        the object-based height slicing, stacked once."""
        fallbacks = KernelFallbacks()
        traps = boolean_trapezoids(
            polygons, [], "or",
            grid=self.grid, merge=self.merge, kernel=self.kernel,
            fallbacks=fallbacks,
        )
        self.last_fallbacks = fallbacks
        if self.max_height is not None:
            traps = slice_to_height(traps, self.max_height)
        return FigureView(trapezoid_array(traps))


def slice_to_height(
    traps: Iterable[Trapezoid], max_height: float
) -> List[Trapezoid]:
    """Slice trapezoids horizontally so none exceeds ``max_height``.

    Slices are equal-height so no residual sliver row is produced.
    Slice boundaries are computed by index (``y_bottom + i * height /
    pieces``) and the side-edge x values are interpolated directly from
    the parent trapezoid, so repeated float addition cannot drift: the
    slices tile the parent exactly (each shares its boundary
    coordinates with its neighbour, the first/last reproduce the parent
    edges bit-for-bit).
    """
    if max_height <= 0:
        raise ValueError("max_height must be positive")
    out: List[Trapezoid] = []
    for trap in traps:
        height = trap.height
        if height <= max_height:
            out.append(trap)
            continue
        pieces = int(-(-height // max_height))  # ceil division
        y0 = trap.y_bottom
        xl0, xr0 = trap.x_bottom_left, trap.x_bottom_right
        dxl = trap.x_top_left - trap.x_bottom_left
        dxr = trap.x_top_right - trap.x_bottom_right
        prev_y, prev_xl, prev_xr = y0, xl0, xr0
        for i in range(1, pieces):
            y = y0 + i * height / pieces
            t = (y - y0) / height
            xl = xl0 + t * dxl
            xr = xr0 + t * dxr
            out.append(Trapezoid(prev_y, y, prev_xl, prev_xr, xl, xr))
            prev_y, prev_xl, prev_xr = y, xl, xr
        out.append(
            Trapezoid(
                prev_y, trap.y_top, prev_xl, prev_xr,
                trap.x_top_left, trap.x_top_right,
            )
        )
    return out
