"""Field partitioning and shot ordering.

Patterns larger than the deflection field must be split into a field
mosaic; shots crossing a field boundary are cut at the boundary (the cut
lines are exactly where stitching errors land — see
:mod:`repro.machine.stitching`).  Within a field, the order in which a
vector/VSB machine visits its shots sets the deflection travel, and
therefore part of the settling overhead; a greedy nearest-neighbour tour
was the period heuristic.

* :func:`partition_fields` — shots → per-field shot lists with boundary
  splitting.
* :func:`order_shots` — ``"scanline"`` (sorted) or ``"nearest"`` (greedy
  tour) ordering; :func:`deflection_travel` measures the result.
* :class:`FieldedJob` — the partitioned job with mosaic statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.job import MachineJob
from repro.fracture.base import Shot
from repro.geometry.trapezoid import Trapezoid

FieldIndex = Tuple[int, int]


def field_index_of(
    x: float, y: float, x0: float, y0: float, pitch: float
) -> FieldIndex:
    """Field index ``(col, row)`` of a point on a mosaic anchored at
    ``(x0, y0)`` with the given pitch.

    The same convention is used for post-fracture shot assignment
    (:func:`partition_fields`) and for pre-fracture layout sharding
    (:mod:`repro.core.executor`), so a shard's shots land in the shard's
    own field.
    """
    return (int((x - x0) / pitch), int((y - y0) / pitch))


def box_field_indices(
    boxes: np.ndarray, x0: float, y0: float, pitch: float
) -> np.ndarray:
    """:func:`field_index_of` of every box centre of an ``(N, 4)``
    ``x0, y0, x1, y1`` block, as an ``(N, 2)`` int64 ``col, row`` block.

    The same IEEE operations in the same order as the scalar form on
    ``((bx0 + bx1) / 2.0, (by0 + by1) / 2.0)`` — centre, quotient,
    truncation toward zero — so every index is bit-identical to it.

    This is where a tile index is born, so it owns the range rule: an
    index must be finite and fit the int32 a shard header stores
    (:data:`repro.core.jobfile._SHARD_HEADER`), whatever mode the plan
    later runs in.

    Raises:
        ValueError: when the pitch cannot tile the layout within that
            range (naming the pitch and the layout extent).
    """
    with np.errstate(all="ignore"):
        centres = (boxes[:, :2] + boxes[:, 2:]) / 2.0
        quotients = np.trunc((centres - (x0, y0)) / pitch)
        # NaN compares false, so one test covers non-finite quotients.
        if not ((quotients >= -(2**31)) & (quotients < 2**31)).all():
            width, height = boxes[:, 2:].max(axis=0) - boxes[:, :2].min(axis=0)
            raise ValueError(
                f"field size {pitch!r} cannot tile a "
                f"{width:g} x {height:g} µm layout: a tile index would not "
                "fit the int32 range shard headers store"
            )
    return quotients.astype(np.int64)


def split_shot_x(shot: Shot, x_cut: float) -> List[Shot]:
    """Split a shot at a vertical line (both halves keep the dose)."""
    t = shot.trapezoid
    bbox = t.bounding_box()
    if not (bbox[0] < x_cut < bbox[2]):
        return [shot]
    left, right = _clip_x(t, None, x_cut), _clip_x(t, x_cut, None)
    out = []
    for piece in (left, right):
        if piece is not None and piece.area() > 0:
            out.append(Shot(piece, shot.dose))
    return out if out else [shot]


def split_shot_y(shot: Shot, y_cut: float) -> List[Shot]:
    """Split a shot at a horizontal line (both halves keep the dose)."""
    t = shot.trapezoid
    if not (t.y_bottom < y_cut < t.y_top):
        return [shot]
    lower, upper = t.split_at_y(y_cut)
    return [Shot(lower, shot.dose), Shot(upper, shot.dose)]


def _clip_x(t: Trapezoid, x_min: float | None, x_max: float | None) -> Trapezoid | None:
    """Clip a trapezoid to a vertical band.

    Exact for rectangles; slanted sides are clipped conservatively at
    their extreme x (the clipped figure never exceeds the band).
    """
    xbl, xbr = t.x_bottom_left, t.x_bottom_right
    xtl, xtr = t.x_top_left, t.x_top_right
    if x_min is not None:
        xbl = max(xbl, x_min)
        xtl = max(xtl, x_min)
        xbr = max(xbr, x_min)
        xtr = max(xtr, x_min)
    if x_max is not None:
        xbl = min(xbl, x_max)
        xtl = min(xtl, x_max)
        xbr = min(xbr, x_max)
        xtr = min(xtr, x_max)
    if xbr - xbl <= 0 and xtr - xtl <= 0:
        return None
    return Trapezoid(t.y_bottom, t.y_top, xbl, xbr, xtl, xtr)


@dataclass
class FieldedJob:
    """A machine job partitioned into deflection fields.

    Attributes:
        job: the source job.
        field_size: mosaic pitch [µm].
        fields: field index (col, row) → shots (boundary pieces included).
        split_count: extra shots created by boundary splitting.
    """

    job: MachineJob
    field_size: float
    fields: Dict[FieldIndex, List[Shot]] = field(default_factory=dict)
    split_count: int = 0

    def field_grid(self) -> Tuple[int, int]:
        """``(columns, rows)`` of the mosaic."""
        if not self.fields:
            return (0, 0)
        cols = max(i for i, _ in self.fields) + 1
        rows = max(j for _, j in self.fields) + 1
        return (cols, rows)

    def occupied_fields(self) -> int:
        """Fields containing at least one shot."""
        return sum(1 for shots in self.fields.values() if shots)

    def boundary_shot_fraction(self) -> float:
        """Fraction of final shots that are boundary pieces."""
        total = sum(len(s) for s in self.fields.values())
        return self.split_count / total if total else 0.0


def partition_fields(job: MachineJob, field_size: float) -> FieldedJob:
    """Assign shots to deflection fields, splitting at boundaries.

    Fields tile the job bounding box from its lower-left corner.
    """
    if field_size <= 0:
        raise ValueError("field size must be positive")
    x0, y0, _, _ = job.bounding_box
    result = FieldedJob(job=job, field_size=field_size)
    original = len(job.shots)
    final = 0

    pending = list(job.shots)
    pieces: List[Shot] = []
    # First split in x at every interior boundary, then in y.
    for shot in pending:
        pieces.extend(_split_at_grid(shot, x0, field_size, axis="x"))
    split_xy: List[Shot] = []
    for shot in pieces:
        split_xy.extend(_split_at_grid(shot, y0, field_size, axis="y"))

    for shot in split_xy:
        bbox = shot.trapezoid.bounding_box()
        cx = (bbox[0] + bbox[2]) / 2.0
        cy = (bbox[1] + bbox[3]) / 2.0
        index = field_index_of(cx, cy, x0, y0, field_size)
        result.fields.setdefault(index, []).append(shot)
        final += 1
    result.split_count = final - original
    return result


def _split_at_grid(shot: Shot, start: float, pitch: float, axis: str) -> List[Shot]:
    bbox = shot.trapezoid.bounding_box()
    lo, hi = (bbox[0], bbox[2]) if axis == "x" else (bbox[1], bbox[3])
    first_cut = math.floor((lo - start) / pitch) + 1
    pieces = [shot]
    cut_index = first_cut
    while True:
        cut = start + cut_index * pitch
        if cut >= hi:
            break
        next_pieces: List[Shot] = []
        for piece in pieces:
            if axis == "x":
                next_pieces.extend(split_shot_x(piece, cut))
            else:
                next_pieces.extend(split_shot_y(piece, cut))
        pieces = next_pieces
        cut_index += 1
    return pieces


# ---------------------------------------------------------------------------
# Shot ordering
# ---------------------------------------------------------------------------


def _shot_center(shot: Shot) -> Tuple[float, float]:
    bbox = shot.trapezoid.bounding_box()
    return ((bbox[0] + bbox[2]) / 2.0, (bbox[1] + bbox[3]) / 2.0)


def order_shots(shots: Sequence[Shot], strategy: str = "scanline") -> List[Shot]:
    """Order shots to reduce deflection travel.

    ``"scanline"`` sorts by (y, x) — the raster-ish default; ``"nearest"``
    runs a greedy nearest-neighbour tour from the first scanline shot
    (O(n²), adequate for per-field populations); ``"none"`` keeps input
    order.
    """
    shots = list(shots)
    if strategy == "none" or len(shots) <= 2:
        return shots
    if strategy == "scanline":
        return sorted(shots, key=lambda s: (_shot_center(s)[1], _shot_center(s)[0]))
    if strategy != "nearest":
        raise ValueError(f"unknown ordering strategy {strategy!r}")
    centers = [_shot_center(s) for s in shots]
    remaining = list(range(len(shots)))
    # Start from the lowest-left shot.
    current = min(remaining, key=lambda i: (centers[i][1], centers[i][0]))
    remaining.remove(current)
    tour = [current]
    while remaining:
        cx, cy = centers[current]
        nearest = min(
            remaining,
            key=lambda i: (centers[i][0] - cx) ** 2 + (centers[i][1] - cy) ** 2,
        )
        remaining.remove(nearest)
        tour.append(nearest)
        current = nearest
    return [shots[i] for i in tour]


def deflection_travel(shots: Sequence[Shot]) -> float:
    """Total centre-to-centre deflection distance over the visit order."""
    total = 0.0
    previous = None
    for shot in shots:
        center = _shot_center(shot)
        if previous is not None:
            total += math.hypot(center[0] - previous[0], center[1] - previous[1])
        previous = center
    return total


def travel_settle_time(
    shots: Sequence[Shot],
    settle_per_jump: float = 1.0e-6,
    long_jump: float = 50.0,
    long_jump_penalty: float = 4.0,
) -> float:
    """Deflection settling model with a long-jump penalty.

    Small jumps settle in ``settle_per_jump``; jumps beyond ``long_jump``
    (a large fraction of the field) take ``long_jump_penalty`` times as
    long — the DAC-to-amplifier slewing the ordering heuristics existed
    to avoid.
    """
    total = 0.0
    previous = None
    for shot in shots:
        center = _shot_center(shot)
        if previous is not None:
            distance = math.hypot(
                center[0] - previous[0], center[1] - previous[1]
            )
            total += settle_per_jump * (
                long_jump_penalty if distance > long_jump else 1.0
            )
        previous = center
    return total
