"""Stacked vertex/trapezoid arrays for the vectorized geometry kernel.

The scalar geometry types (:class:`~repro.geometry.polygon.Polygon`,
:class:`~repro.geometry.trapezoid.Trapezoid`) are convenient but cost a
Python object per vertex.  The hot paths — grid snapping, affine
transformation, trapezoid replication — operate on *sets* of polygons,
so this module provides a stacked representation: one ``(N, 2)`` float64
coordinate array plus a ``(P + 1,)`` offset array delimiting the rings,
and a ``(N, 6)`` array for trapezoid batches.

Every vectorized routine here replicates the scalar arithmetic
operation-for-operation (same IEEE-754 operations in the same order), so
results are bit-identical to the scalar code paths they accelerate.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as SequenceABC
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform, identity_rows
from repro.geometry.trapezoid import Trapezoid

StackedRings = Tuple[np.ndarray, np.ndarray]


def stack_polygons(polygons: Sequence[Polygon]) -> StackedRings:
    """Stack polygon vertex rings into ``(coords (N,2), offsets (P+1,))``.

    ``coords[offsets[i]:offsets[i+1]]`` is polygon ``i``'s vertex ring:
    the rings (``Polygon.ring``) concatenated in one call.
    """
    offsets = np.cumsum([0, *map(len, polygons)], dtype=np.int64)
    return np.concatenate([np.empty((0, 2)), *(p.ring for p in polygons)]), offsets


def snap_coords(coords: np.ndarray, grid: float) -> np.ndarray:
    """Vectorized grid snap, bit-identical to :func:`predicates.snap`.

    The scalar rule is half-up rounding away from zero implemented as
    ``int(v/grid + 0.5)`` for non-negative and ``-int(-v/grid + 0.5)``
    for negative values; ``int()`` truncates, so the vector form uses
    :func:`numpy.trunc` on the same intermediate expressions.
    """
    scaled = coords / grid
    snapped = np.where(
        scaled >= 0.0, np.trunc(scaled + 0.5), -np.trunc(-scaled + 0.5)
    )
    return snapped.astype(np.int64)


def snap_stacked(
    coords: np.ndarray, offsets: np.ndarray, grid: float
) -> StackedRings:
    """Snap already-stacked rings to the integer grid.

    Each ring is snapped like
    :func:`~repro.geometry.scanline.snap_polygon` (same snapping, same
    consecutive-duplicate and closing-duplicate removal), as stacked
    int64 arrays.  The rings come as the raw stacked ``(coords,
    offsets)`` pair, so callers that need to inspect the raw float
    coordinates first (e.g. the fast kernel's overflow pre-check, which
    must reject magnitudes where the float->int64 cast would be
    undefined) can stack once and snap afterwards.
    """
    snapped = snap_coords(coords, grid)
    n = snapped.shape[0]
    if n == 0:
        return snapped, offsets

    ring_id = np.repeat(
        np.arange(len(offsets) - 1), np.diff(offsets)
    )
    # Keep a vertex when it differs from its predecessor in the same ring
    # (ring-first vertices are always kept at this stage).
    keep = np.ones(n, dtype=bool)
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = (
        (snapped[1:, 0] == snapped[:-1, 0])
        & (snapped[1:, 1] == snapped[:-1, 1])
        & (ring_id[1:] == ring_id[:-1])
    )
    keep &= ~same_as_prev

    # Drop the closing duplicate: last kept vertex equal to the first
    # kept vertex of the same ring (only when the ring still has >= 2).
    kept_counts = np.zeros(len(offsets) - 1, dtype=np.int64)
    np.add.at(kept_counts, ring_id[keep], 1)
    kept_idx = np.nonzero(keep)[0]
    kept_ring = ring_id[kept_idx]
    ring_starts_k = np.searchsorted(kept_ring, np.arange(len(offsets) - 1))
    ring_ends_k = np.searchsorted(
        kept_ring, np.arange(len(offsets) - 1), side="right"
    )
    for r in range(len(offsets) - 1):
        lo, hi = ring_starts_k[r], ring_ends_k[r]
        if hi - lo >= 2:
            first, last = kept_idx[lo], kept_idx[hi - 1]
            if (
                snapped[first, 0] == snapped[last, 0]
                and snapped[first, 1] == snapped[last, 1]
            ):
                keep[last] = False
                kept_counts[r] -= 1

    out = snapped[keep]
    out_offsets = np.empty(len(offsets), dtype=np.int64)
    out_offsets[0] = 0
    np.cumsum(kept_counts, out=out_offsets[1:])
    return out, out_offsets


# ---------------------------------------------------------------------------
# Affine transforms over stacked arrays
# ---------------------------------------------------------------------------


def transform_polygons(
    polygons: Sequence[Polygon], rows: np.ndarray
) -> Iterator[Polygon]:
    """``p.transformed(Transform(*row))`` for each of the ``(k, 6)``
    affine ``rows``, for each polygon, lazily.

    One broadcast of :meth:`Transform.apply`'s arithmetic (``a*x + b*y
    + e``, in that order) over the stacked rings and all rows, bit for
    bit the scalar method; a ring is reversed under a row with
    ``a·d − b·c ≤ 0`` as the scalar method does, and becomes a polygon
    by the constructor's rule.  An identity row
    (:meth:`Transform.is_identity`'s tolerance) hands back the polygons
    themselves — ``1·x + 0·y + 0`` would turn −0.0 into 0.0 — and rows
    that are all identity stack nothing.
    """
    identity = identity_rows(rows).tolist()
    if all(identity):
        return itertools.chain.from_iterable(itertools.repeat(polygons, len(rows)))
    return _transformed(polygons, rows, identity)


def _transformed(
    polygons: Sequence[Polygon], rows: np.ndarray, identity: List[bool]
) -> Iterator[Polygon]:
    """The broadcast half of :func:`transform_polygons`."""
    coords, offsets = stack_polygons(polygons)
    a, b, c, d, e, f = rows.T[..., None]
    moved = np.empty((len(rows), len(coords), 2))
    for out, (p, q, r) in zip(np.moveaxis(moved, -1, 0), ((a, b, e), (c, d, f))):
        np.multiply(p, coords[:, 0], out=out)
        out += q * coords[:, 1]
        out += r
    mirrored = (~(a * d - b * c > 0.0))[:, 0].tolist()
    spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    for block, same, reverse in zip(moved, identity, mirrored):
        if same:
            yield from polygons
            continue
        for lo, hi in spans:
            ring = block[lo:hi]
            yield Polygon.from_array(ring[::-1] if reverse else ring)


# ---------------------------------------------------------------------------
# Trapezoid batches
# ---------------------------------------------------------------------------

#: Column order of a stacked trapezoid array — the one spelling of a
#: figure's six coordinates; everything below reads them through it.
TRAP_COLUMNS = (
    "y_bottom",
    "y_top",
    "x_bottom_left",
    "x_bottom_right",
    "x_top_left",
    "x_top_right",
)

#: ``trapezoid_fields(t)`` is ``t``'s coordinates in column order.
trapezoid_fields = operator.attrgetter(*TRAP_COLUMNS)


class BlockView(SequenceABC):
    """A read-only sequence of objects carried as the rows of one
    float64 block.

    ``len``, indexing, slicing/:meth:`take` (→ a view over the selected
    rows), iteration and ``==`` against any sequence behave as the list
    of objects would; an object is built only for an element that is
    touched.  Subclasses name the row width (``WIDTH``), how a row's
    values become an object (``_item``) and how a sequence of such
    objects becomes a block (``_block_of``).  The constructor trusts
    its block — producers inside the program hand over rows that are
    valid by construction; a block read from outside goes through
    :func:`repro.fracture.base.shots_from_rows`.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows = rows.view()
        rows.flags.writeable = False

    @classmethod
    def concat(cls, blocks: Iterable[np.ndarray]) -> "BlockView":
        """One view over ``blocks`` stacked in order (none → empty)."""
        return cls(np.concatenate([np.empty((0, cls.WIDTH)), *blocks]))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        """The object at an integer ``index``; the view of the selected
        rows for a slice or an index array."""
        rows = self.rows[index]
        return type(self)(rows) if rows.ndim == 2 else self._item(*rows.tolist())

    take = __getitem__

    def __iter__(self):
        return itertools.starmap(self._item, self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        if len(other) != len(self):
            return False
        try:
            return np.array_equal(self.rows, self._block_of(other))
        except (AttributeError, TypeError, ValueError):
            return False  # not a sequence of this view's objects

    def __reduce__(self):
        return type(self), (self.rows,)


def trapezoid_array(traps: Iterable[Trapezoid]) -> np.ndarray:
    """Stack trapezoids into an ``(N, 6)`` float64 array (TRAP_COLUMNS);
    a :class:`FigureView` hands over the block it carries."""
    if isinstance(traps, FigureView):
        return traps.rows
    fields = [trapezoid_fields(t) for t in traps]
    return np.array(fields, dtype=np.float64).reshape(-1, 6)


def trapezoids_from_array(arr: np.ndarray) -> List[Trapezoid]:
    """Rebuild :class:`Trapezoid` objects from an ``(N, 6)`` array."""
    return [Trapezoid(*row) for row in arr.tolist()]


class FigureView(BlockView):
    """A figure list carried as its ``(N, 6)`` block (TRAP_COLUMNS)."""

    __slots__ = ()
    WIDTH = 6
    _block_of = staticmethod(trapezoid_array)
    _item = Trapezoid


def trapezoid_bounds(arr: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per-row bounding boxes ``(x0, y0, x1, y1)`` of a trapezoid block
    (its first six columns), as :meth:`Trapezoid.bounding_box`."""
    return (
        np.minimum(arr[:, 2], arr[:, 4]),
        arr[:, 0],
        np.maximum(arr[:, 3], arr[:, 5]),
        arr[:, 1],
    )


def trapezoid_areas(arr: np.ndarray) -> np.ndarray:
    """Per-row areas, bit-identical to :meth:`Trapezoid.area`."""
    bottom = arr[:, 3] - arr[:, 2]
    top = arr[:, 5] - arr[:, 4]
    return 0.5 * (bottom + top) * (arr[:, 1] - arr[:, 0])


def sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """``start + values[0] + values[1] + …`` added strictly left to
    right — the float a ``+=`` loop produces, continued from ``start``.

    ``np.sum`` adds pairwise and the builtin ``sum`` compensates
    (Neumaier, CPython ≥ 3.12); both move the last ulp, and the totals
    folded here are compared bit for bit across resident, streamed and
    cached runs.  ``np.add.accumulate`` has no such freedom.
    """
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def transform_trapezoid_array(arr: np.ndarray, t) -> np.ndarray:
    """Vectorized horizontality-preserving transform of a trapezoid batch.

    Bit-identical to :func:`repro.core.hierarchical.transform_trapezoid`
    applied per row: the same products and sums in the same order, the
    same vertical-flip and left/right re-sorting rules.

    ``t`` is a :class:`Transform`, or a ``(K, 6)`` array of affine rows
    ``(a, b, c, d, e, f)`` — every placement of one block in one
    broadcast pass.  The result is then ``(K, N, 6)`` and its ``[k]`` is
    the batch under ``Transform(*t[k])`` bit for bit (the arithmetic is
    elementwise, so batching cannot move it).

    Raises:
        ValueError: if a transform would tilt the horizontal edges.
    """
    many = not isinstance(t, Transform)
    matrix = t if many else np.array([(t.a, t.b, t.c, t.d, t.e, t.f)])
    a, b, c, d, e, f = matrix.T[:, :, None]
    if (np.abs(c) > 1e-12).any():
        raise ValueError("transform does not preserve horizontal edges")
    yb, yt = arr[:, 0], arr[:, 1]
    xbl, xbr, xtl, xtr = arr[:, 2], arr[:, 3], arr[:, 4], arr[:, 5]
    y0 = d * yb + f
    y1 = d * yt + f
    bl = a * xbl + b * yb + e
    br = a * xbr + b * yb + e
    tl = a * xtl + b * yt + e
    tr = a * xtr + b * yt + e
    flip = y1 < y0
    y0_out = np.where(flip, y1, y0)
    y1_out = np.where(flip, y0, y1)
    bl, tl = np.where(flip, tl, bl), np.where(flip, bl, tl)
    br, tr = np.where(flip, tr, br), np.where(flip, br, tr)
    swap_b = bl > br
    bl, br = np.where(swap_b, br, bl), np.where(swap_b, bl, br)
    swap_t = tl > tr
    tl, tr = np.where(swap_t, tr, tl), np.where(swap_t, tl, tr)
    out = np.stack((y0_out, y1_out, bl, br, tl, tr), axis=-1)
    return out if many else out[0]
