"""The shard planner: a layout → its writing-field work units.

Sharding semantics
------------------
* ``field_size=None`` (the default) plans a single shard covering the
  whole layout — exactly the historical single-pass pipeline, including
  global proximity correction.
* With a ``field_size``, items are assigned to mosaic tiles by their
  bounding-box centre (the convention of
  :func:`repro.core.fields.field_index_of`, shared with post-fracture
  shot partitioning).  Proximity correction becomes field-local (no
  cross-field dose coupling), the standard mosaic approximation when
  the field pitch is large against the backscatter range β.
* The plan is a pure function of the items' bounding boxes — never of
  the worker count — so one planner (:func:`_plan_tiles`) reads them as
  one ``(N, 4)`` block for resident polygons, pre-fractured figures and
  the streamed spool alike; the overlap advisory below reads the same
  block.  A pitch whose tile indices would not fit a shard header's
  int32 is a ``ValueError`` at plan time, in every mode.

Overlap semantics
-----------------
The boolean union that dedupes overlapping input polygons runs per
shard, so overlaps *between polygons of different shards* would be
exposed twice (their area double-counts).  The shard planner therefore
enforces an ``overlap_policy``:

* ``"warn"`` (default) — detect polygons of different shards that
  share positive area on the database grid (the area fracturing both
  would expose twice; the boolean engine that fractures them decides)
  and emit a :class:`ShardOverlapWarning`; the plan is kept as-is (the
  historical behaviour, now audible).  Abutting and corner-touching
  polygons — the normal mosaic case — share no area.
* ``"union"`` — boolean-union the layout before bucketing, which makes
  sharding exact for arbitrary overlap-heavy data at the cost of one
  global union pass.
* ``"ignore"`` — skip the check (for callers that guarantee disjoint
  inputs, e.g. the hierarchical flattener's per-layer merge).

This matters doubly with the shard cache: a silently double-counted
shard would be double-counted on every warm run as well.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fields import FieldIndex, box_field_indices
from repro.core.recipe import choice, number_complaint, require
from repro.geometry.boolean import boolean_trapezoids, union
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    FigureView,
    stack_polygons,
    trapezoid_array,
    trapezoid_bounds,
)


class ShardOverlapWarning(UserWarning):
    """Polygons of different shards overlap — their area double-counts."""


def warn_at_caller(message: str, category: type) -> None:
    """Warn at the first frame outside ``repro.core`` and
    ``repro.machine``, whatever the depth of the call: the line that
    called a pipeline door, the CLI's or the service's line that did,
    or the caller of :func:`plan_shards` — the rule every run warning
    (store degradation, the overlap advisory) names its line by."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and (
        frame.f_globals.get("__name__", "") + "."
    ).startswith(("repro.core.", "repro.machine.")):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


#: Pairwise interior-overlap checks budgeted per plan; beyond this the
#: planner warns conservatively instead of scaling quadratically.
_OVERLAP_CHECK_CAP = 20000


@dataclass(frozen=True)
class Shard:
    """One work unit: the polygons of a single writing-field tile.

    Attributes:
        index: field index ``(col, row)`` on the mosaic; ``(0, 0)`` for
            the unsharded single-tile plan.
        polygons: the tile's polygons, in layout order.
        figures: pre-fractured machine figures instead of polygons —
            set by hierarchy-aware runs, where each cell was fractured
            once up front and the executor only applies proximity
            correction per shard.  When set, ``polygons`` is empty and
            the fracturer is never invoked.  The planner sets a
            :class:`~repro.geometry.vertex_array.FigureView` (one block,
            compared by value); any figure sequence works.

    A shard has one serialized form — its ``EBS1`` payload
    (:func:`repro.core.jobfile.dumps_shard`) — on every boundary it
    crosses: the pool's task pickle (:meth:`__reduce__`), the fleet's
    lease and, one ring per record, the streamed door's spool.  The
    cache key hashes the same ring records.
    """

    index: FieldIndex
    polygons: Tuple[Polygon, ...]
    figures: Optional[Sequence[Trapezoid]] = None

    def __reduce__(self):
        from repro.core.jobfile import dumps_shard, loads_shard

        return loads_shard, (dumps_shard(self),)


#: Cross-shard overlap handling: :func:`plan_shards`' and the pipeline's rule.
_OVERLAP_POLICY = choice(("warn", "union", "ignore"))


def _plan_tiles(boxes: np.ndarray, field_size: float) -> tuple:
    """The shard planner: a non-empty ``(N, 4)`` block of item bounding
    boxes (``x0, y0, x1, y1``) → the mosaic tiles that hold them.

    A plan is a pure function of the boxes: the mosaic is anchored at
    the lower-left of the combined bounding box and every item goes
    whole to the tile containing its box centre
    (:func:`repro.core.fields.box_field_indices`, which also rejects a
    pitch whose tile indices are not representable).  Resident polygon
    and figure lists and the streamed spool all plan through here, so
    they shard identically.

    Returns ``(tiles, tile_of, origin)``: ``tiles`` lists ``(field
    index, member positions)`` row-major (bottom row first, left to
    right — the merge order) with positions in input order;
    ``tile_of`` is every item's own ``(col, row)`` as an ``(N, 2)``
    block and ``origin`` the mosaic anchor, for the overlap advisory.
    """
    why = number_complaint(field_size)
    if why:
        raise ValueError(f"field size {why}, got {field_size!r}")
    origin = boxes[:, :2].min(axis=0)
    tile_of = box_field_indices(boxes, *origin, field_size)
    # lexsort is stable and its last key is primary: row-major tile
    # order, input order inside a tile.
    order = np.lexsort(tile_of.T)
    ordered = tile_of[order]
    starts = np.flatnonzero(
        np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    )
    tiles = [
        (tuple(index), members.tolist())
        for index, members in zip(
            ordered[starts].tolist(), np.split(order, starts[1:])
        )
    ]
    return tiles, tile_of, origin


def plan_shards(
    polygons: Sequence[Polygon],
    field_size: Optional[float] = None,
    overlap_policy: str = "warn",
) -> List[Shard]:
    """Partition a flattened polygon list into writing-field shards.

    Polygons are assigned whole to the tile containing their bounding-box
    centre (no polygon is split, so a shard's fracture is exact); the
    mosaic is anchored at the lower-left of the combined bounding box.
    Shards come back sorted row-major (bottom row first, left to right)
    — the merge order.

    ``field_size=None`` returns one shard with everything.

    ``overlap_policy`` governs polygons whose interiors overlap across
    shard boundaries (their area would double-count): ``"warn"`` emits a
    :class:`ShardOverlapWarning`, ``"union"`` boolean-unions the layout
    before bucketing, ``"ignore"`` skips the check.
    """
    require(_OVERLAP_POLICY, "overlap_policy", overlap_policy)
    polygons = list(polygons)
    if not polygons:
        return []
    if field_size is None:
        return [Shard(index=(0, 0), polygons=tuple(polygons))]
    if overlap_policy == "union" and len(polygons) > 1:
        polygons = union(polygons)
    coords, offsets = stack_polygons(polygons)
    first = offsets[:-1]
    boxes = np.hstack(
        (np.minimum.reduceat(coords, first), np.maximum.reduceat(coords, first))
    )
    tiles, tile_of, origin = _plan_tiles(boxes, field_size)
    if overlap_policy == "warn":
        _warn_on_cross_shard_overlap(
            polygons, boxes, tile_of, origin, field_size, lambda poly: poly
        )
    return [
        Shard(index=index, polygons=tuple(polygons[i] for i in members))
        for index, members in tiles
    ]


def plan_figure_shards(
    figures: Sequence[Trapezoid],
    field_size: Optional[float] = None,
    overlap_policy: str = "warn",
) -> List[Shard]:
    """Partition pre-fractured machine figures into writing-field shards.

    The figure-level counterpart of :func:`plan_shards` for
    hierarchy-aware runs: each figure is assigned whole to the tile
    containing its bounding-box centre, shards come back row-major.

    Figures of one fracture are disjoint, but figures of *different*
    instances (or ill-formed overlapping placements) may overlap —
    exactly like input polygons in :func:`plan_shards` — so
    ``overlap_policy="warn"`` runs the same cross-shard interior check.
    ``"union"`` is not a figure policy (its kind refuses it):
    pre-unioning would require re-fracturing, which is what a
    pre-fractured run exists to avoid.  The pipeline refuses a cells +
    ``union`` run of a layout before it reads the layout, with the
    :data:`~repro.core.recipe.RULES` row's reason.
    """
    require(choice(("warn", "ignore")), "overlap_policy", overlap_policy)
    block = trapezoid_array(figures)
    if not len(block):
        return []
    figures = FigureView(block)
    if field_size is None:
        return [Shard(index=(0, 0), polygons=(), figures=figures)]
    boxes = np.column_stack(trapezoid_bounds(block))
    tiles, tile_of, origin = _plan_tiles(boxes, field_size)
    if overlap_policy == "warn":
        _warn_on_cross_shard_overlap(
            figures, boxes, tile_of, origin, field_size, Trapezoid.to_polygon
        )
    return [
        Shard(index, (), figures=figures.take(members))
        for index, members in tiles
    ]


def _interiors_overlap(a: Polygon, b: Polygon) -> bool:
    """True iff the two polygons share positive area on the database
    grid — the area fracturing both would expose twice.

    The boolean engine that fractures the shards answers it: their
    intersection is non-empty.  Exact on the grid, so abutting or
    corner-touching polygons (the normal mosaic case) are not flagged.
    """
    return len(boolean_trapezoids([a], [b], "and")) > 0


def _warn_on_cross_shard_overlap(
    items: Sequence,
    boxes: np.ndarray,
    tile_of: np.ndarray,
    origin: np.ndarray,
    field_size: float,
    as_polygon,
) -> None:
    """Emit :class:`ShardOverlapWarning` if items of different shards
    share positive area on the database grid.

    Reads the block the plan was made from (``boxes`` and
    :func:`_plan_tiles`' ``tile_of``/``origin``).  ``as_polygon``
    converts an item to a :class:`Polygon` for the exact check,
    :func:`_interiors_overlap` (identity for polygon shards,
    ``to_polygon`` for pre-fractured figure shards); each check is one
    boolean-engine call, at most :data:`_OVERLAP_CHECK_CAP` per plan,
    and the first positive ends the enumeration.  Two items each
    contained in their own tile cannot overlap, so every overlapping
    cross-shard pair involves a *crosser* — an item whose bounding box
    escapes its tile — and the candidates are enumerated from the
    crossers: each against the items of other tiles whose boxes overlap
    its box with positive area, a crosser–crosser pair visited once.
    Fully tile-contained layouts return before any pairing.
    """
    lower, upper = boxes[:, :2], boxes[:, 2:]
    tile_lower = origin + tile_of * field_size
    crosser = (
        (lower < tile_lower) | (upper > tile_lower + field_size)
    ).any(axis=1)
    if not crosser.any():
        return
    # In x0 order, the boxes reaching past a crosser's left edge start
    # at the first position whose running-max x1 exceeds that edge, and
    # the boxes starting before its right edge end at that edge's
    # insertion point: only this window is compared, as arrays.
    order = np.argsort(boxes[:, 0], kind="stable")
    positions = np.flatnonzero(crosser[order])
    window_lo = np.searchsorted(
        np.maximum.accumulate(upper[order, 0]),
        lower[order[positions], 0],
        "right",
    )
    window_hi = np.searchsorted(
        lower[order, 0], upper[order[positions], 0], "left"
    )
    checked = 0
    for position, lo, hi in zip(
        positions.tolist(), window_lo.tolist(), window_hi.tolist()
    ):
        a = order[position]
        window = order[lo:hi]
        partners = window[
            # the two boxes intersect in positive width and height,
            (
                np.minimum(upper[window], upper[a])
                > np.maximum(lower[window], lower[a])
            ).all(axis=1)
            # in different tiles,
            & (tile_of[window] != tile_of[a]).any(axis=1)
            # and no earlier crosser has already met this one.
            & ~(crosser[window] & (np.arange(lo, hi) <= position))
        ]
        for b in partners.tolist():
            checked += 1
            if checked > _OVERLAP_CHECK_CAP:
                trouble = (
                    "too many boundary-crossing polygon pairs to verify "
                    "exactly; layout may overlap across shards and "
                    "double-count exposed area"
                )
            elif _interiors_overlap(as_polygon(items[a]), as_polygon(items[b])):
                trouble = (
                    f"polygons of shards {tuple(tile_of[a].tolist())} and "
                    f"{tuple(tile_of[b].tolist())} overlap; their overlap "
                    "area is exposed twice (and would be replayed from "
                    "the shard cache)"
                )
            else:
                continue
            warn_at_caller(
                f"{trouble} — pre-union the layout, pass "
                "overlap_policy='union', or run with field_size=None",
                ShardOverlapWarning,
            )
            return
