"""Run-length encoding of fractured patterns for the raster datapath.

The EBES-class machines did not store bitmaps: the data path expanded a
figure stream into per-scanline (start, length) runs on the fly and fed
the blanker.  This module performs that expansion faithfully:

* :func:`encode_runs` — figure list → per-scanline runs on the machine
  address grid, overlapping runs merged, as one ``(R, 3)`` array
  (figure × scanline expanded and merged as arrays; what the raster
  program segments are packed from); :func:`runs_by_line` groups them
  per scanline.
* :func:`decode_to_coverage` — runs → binary address map (for
  verification against the rasterizer).
* :data:`BYTES_PER_RUN`, :data:`BYTES_PER_LINE` — the exact stream size
  in the 2-word-per-run format (replacing the estimate in
  :mod:`repro.machine.datapath`).

Runs use the pixel-centre convention: address ``i`` on scanline ``j`` is
written when the point ``(x0 + (i + 0.5)·a, y0 + (j + 0.5)·a)`` lies in
the figure.  Membership is half-open on both axes (``y_bottom <= y <
y_top`` and ``left <= x < right``), so two figures abutting on an edge
that falls exactly on a pixel centre expose that row/column once, not
twice — even when the two figures land in *different* shards of a
machine program, where no run merging can dedupe them — and a figure of
height ``h`` never produces more than ``ceil(h / a)`` scanlines: the
exact stream is bounded by the per-figure estimate of
:func:`repro.machine.datapath.rle_bytes_estimate`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import trapezoid_array, trapezoid_bounds

#: One run costs two 16-bit words (start, length).
BYTES_PER_RUN = 4

#: Each scanline carries one 16-bit run-count word.
BYTES_PER_LINE = 2

Run = Tuple[int, int]  # (start_address, length)


def encode_runs(
    figures: Sequence[Trapezoid],
    address_unit: float,
    origin: Tuple[float, float] | None = None,
) -> Tuple[Tuple[float, float], int, np.ndarray]:
    """Expand a figure list into per-scanline runs, as arrays.

    Args:
        figures: disjoint machine figures.
        address_unit: machine address pitch [µm].
        origin: address-grid origin; defaults to the figure bbox corner.

    Returns:
        ``(origin, line_count, runs)``: ``runs`` is an ``(R, 3)`` int64
        array of ``(scanline, start, length)`` rows sorted by scanline,
        then start, overlapping/adjacent runs of a scanline merged;
        ``line_count`` the scanlines spanned (including empty ones).

    Raises:
        ValueError: when an explicitly-passed ``origin`` sits above or
            right of a figure, so that a run would fall on a negative
            scanline or address — the grid cannot represent it, and
            silently clipping it would desynchronize the stream size and
            ``line_count`` from the runs; or when a run lies beyond the
            32-bit address range.
    """
    if address_unit <= 0:
        raise ValueError("address unit must be positive")
    block = trapezoid_array(figures)
    if not len(block):
        return (0.0, 0.0), 0, np.empty((0, 3), dtype=np.int64)
    bx0, by0, _, by1 = trapezoid_bounds(block)
    if origin is None:
        origin = (float(bx0.min()), float(by0.min()))
    x0, y0 = origin
    line_count = max(1, int(np.ceil((by1.max() - y0) / address_unit)))
    runs = merge_runs(_figure_runs(block, x0, y0, address_unit))
    return (x0, y0), line_count, runs


def runs_by_line(runs: np.ndarray) -> Dict[int, List[Run]]:
    """Scanline-sorted ``(scanline, start, length)`` rows as a mapping
    scanline → that line's ``(start, length)`` runs."""
    return {
        int(chunk[0, 0]): [(start, length) for _, start, length in chunk.tolist()]
        for chunk in np.split(runs, np.flatnonzero(np.diff(runs[:, 0])) + 1)
        if len(chunk)
    }


def _figure_runs(block: np.ndarray, x0: float, y0: float, a: float) -> np.ndarray:
    """Every figure × scanline run of an ``(N, 6)`` block, unmerged, as
    ``(scanline, start, length)`` rows in figure order."""
    yb, yt = block[:, 0], block[:, 1]
    first = np.floor((yb - y0) / a)
    # Zero-height (degenerate) figures carry no area and no scanline can
    # have its centre strictly inside them; they span no scanline
    # instead of dividing by a zero height below.
    span = np.where(yt - yb > 0.0, np.ceil((yt - y0) / a) - first, 0.0)
    span = span.astype(np.int64)
    figure = np.repeat(np.arange(len(block)), span)
    within = np.arange(len(figure)) - np.repeat(np.cumsum(span) - span, span)
    j = first[figure] + within
    yb, yt, xbl, xbr, xtl, xtr = block[figure].T
    y = y0 + (j + 0.5) * a
    t = (y - yb) / (yt - yb)
    left = xbl + t * (xtl - xbl)
    right = xbr + t * (xtr - xbr)
    # Addresses whose centres fall inside [left, right): the right
    # edge is exclusive, mirroring the scanline convention, so a
    # shared vertical edge exactly on a pixel centre belongs to the
    # right-hand figure only (ceil - 1 drops an exactly-on-edge
    # centre that floor would keep).
    start = np.ceil((left - x0) / a - 0.5)
    end = np.ceil((right - x0) / a - 0.5) - 1
    # Half-open membership: a shared horizontal edge exactly on a
    # pixel-centre row belongs to the upper figure only.
    keep = (yb <= y) & (y < yt) & (end >= start)
    outside = keep & ((j < 0) | (start < 0))
    if outside.any():
        culprit = Trapezoid(*block[figure[outside.argmax()]].tolist())
        raise ValueError(
            f"figure {culprit!r} extends below/left of the address-grid "
            f"origin ({x0:g}, {y0:g}); pass an origin at or below the "
            "figure bounding box"
        )
    runs = np.column_stack((j, start, end - start + 1))[keep]
    if runs.size and runs.max() >= 2.0**31:
        raise ValueError(
            f"a run at {runs.max():g} lies beyond the 32-bit address range; "
            "increase the address unit"
        )
    return runs.astype(np.int64)


def merge_runs(runs: np.ndarray) -> np.ndarray:
    """Sort ``(scanline, start, length)`` rows by scanline, then start,
    and merge a scanline's overlaps/adjacencies."""
    if not len(runs):
        return runs
    line, start, length = runs[np.lexsort((runs[:, 1], runs[:, 0]))].T
    # A run opens a merged run when it starts a scanline or begins past
    # everything before it on that scanline.  Ranking the scanlines and
    # spacing them wider than any run reaches makes "before it on that
    # scanline" a plain running maximum (addresses are non-negative and
    # below 2**31, so the products fit int64).
    rank = np.cumsum(np.r_[0, np.diff(line) != 0])
    pitch = int((start + length).max()) + 1
    reach = np.maximum.accumulate(rank * pitch + start + length)
    opens = np.r_[True, rank[1:] * pitch + start[1:] > reach[:-1]]
    first = np.flatnonzero(opens)
    last = np.r_[first[1:], len(line)] - 1
    merged_end = reach[last] - rank[last] * pitch
    return np.column_stack((line[first], start[first], merged_end - start[first]))


def decode_to_coverage(
    lines: Dict[int, List[Run]], line_count: int, width_addresses: int
) -> np.ndarray:
    """Expand per-scanline runs (:func:`runs_by_line`) back into a
    binary address map (verification aid)."""
    grid = np.zeros((line_count, width_addresses), dtype=bool)
    for j, runs in lines.items():
        if not (0 <= j < line_count):
            continue
        for start, length in runs:
            grid[j, start : min(start + length, width_addresses)] = True
    return grid
