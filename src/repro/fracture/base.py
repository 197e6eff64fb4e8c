"""Fracturer interface and the Shot record.

A shot has two forms.  The carried form is the block: a shot list is
one ``(N, 7)`` float64 array — the six
:data:`~repro.geometry.vertex_array.TRAP_COLUMNS` plus the dose, one
row per shot in shot order — and everything the preparation path
produces (fracturers, correctors, shard results, merged jobs, loaded
payloads) hands it on inside a :class:`ShotView`; figure lists travel
the same way as ``(N, 6)`` blocks in a
:class:`~repro.geometry.vertex_array.FigureView`.  Every consumer that
walks a whole list (digests, the ``.ebj``/``.ebp`` packers, shard
payloads, cache keys, PEC's field arrays, the planner) reads the block
through :func:`shot_rows` /
:func:`~repro.geometry.vertex_array.trapezoid_array` without a loop.
:class:`Shot` objects are the API type: a view builds one when an
element is asked for — by the reference engine, ``order_shots``,
``metrics`` or user code — and plain ``List[Shot]`` input is accepted
everywhere a view is.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import BlockView, FigureView, trapezoid_array


class Shot:
    """One machine figure with its dose assignment.

    Attributes:
        trapezoid: the figure geometry (rectangles are trapezoids too).
        dose: relative dose factor (1.0 = base dose).  Proximity-effect
            correction rewrites this field.
    """

    __slots__ = ("trapezoid", "dose")

    def __init__(self, trapezoid: Trapezoid, dose: float = 1.0) -> None:
        if dose < 0:
            raise ValueError("dose must be non-negative")
        self.trapezoid = trapezoid
        self.dose = float(dose)

    def area(self) -> float:
        """Figure area."""
        return self.trapezoid.area()

    def __repr__(self) -> str:
        return f"Shot({self.trapezoid!r}, dose={self.dose:g})"


def shot_rows(shots: Sequence[Shot]) -> np.ndarray:
    """The ``(N, 7)`` float64 block of a shot list:
    :func:`~repro.geometry.vertex_array.trapezoid_array` plus the dose
    column; a :class:`ShotView` hands over the block it carries."""
    if isinstance(shots, ShotView):
        return shots.rows
    return np.column_stack(
        (trapezoid_array(s.trapezoid for s in shots), [s.dose for s in shots])
    )


class ShotView(BlockView):
    """A shot list carried as its ``(N, 7)`` block."""

    __slots__ = ()
    WIDTH = 7
    _block_of = staticmethod(shot_rows)

    @staticmethod
    def _item(*row: float) -> Shot:
        return Shot(Trapezoid(*row[:6]), row[6])

    @property
    def figures(self) -> FigureView:
        """The shots' geometry, as a view of the same block."""
        return FigureView(self.rows[:, :6])


def dosed(figures: Sequence[Trapezoid], dose=1.0) -> ShotView:
    """``figures`` as shots at ``dose`` — one factor for all, or one per
    figure."""
    if np.any(np.asarray(dose) < 0):
        raise ValueError("dose must be non-negative")
    block = trapezoid_array(figures)
    return ShotView(np.column_stack((block, np.broadcast_to(dose, len(block)))))


def with_doses(shots: Sequence[Shot], doses) -> ShotView:
    """``shots`` under a new dose column — how a corrector returns its
    result."""
    return dosed(FigureView(shot_rows(shots)[:, :6]), doses)


def shots_from_rows(rows: np.ndarray) -> ShotView:
    """The shot list of an ``(N, 7)`` block from outside the program,
    checked whole before anything is returned.

    Raises:
        ValueError: the block is not a shot list — a non-finite value
            (nothing downstream rejects a NaN) or one of the invariants
            :class:`Trapezoid` and :class:`Shot` enforce, exactly as
            building the objects row by row would complain.  Readers
            of bytes from outside the program turn this into their own
            error.
    """
    if not np.isfinite(rows).all():
        raise ValueError("non-finite coordinate or dose")
    flat = rows[:, 1] <= rows[:, 0]
    crossed = (rows[:, 3] < rows[:, 2]) | (rows[:, 5] < rows[:, 4])
    bad = flat | crossed
    if bad.any():
        Trapezoid(*rows[np.argmax(bad), :6])  # raises its own complaint
    if (rows[:, 6] < 0).any():
        raise ValueError("dose must be non-negative")
    return ShotView(rows)


def row_bytes(rows: np.ndarray) -> bytes:
    """The block's exact image: every value as its big-endian IEEE-754
    double, row by row.  This is what the job digest hashes, what a
    shard payload stores and what a segment key covers, so equal bytes
    mean shot-for-shot bit-identical."""
    return rows.astype(">f8").tobytes()


class Fracturer(abc.ABC):
    """Strategy interface: polygon set → list of machine figures.

    After every :meth:`fracture` call, :attr:`last_fallbacks` holds the
    fast-kernel degradation counters of that call (all zeros for
    fracturers that do not use the scanline kernel, or when the fast
    path handled everything).  The attribute is observability only: it
    is listed in :data:`CACHE_VOLATILE` so cache fingerprints ignore it
    — identical inputs hash identically whether or not the previous
    call degraded.
    """

    #: Attributes excluded from cache fingerprints (mutable run-state,
    #: not configuration).
    CACHE_VOLATILE = frozenset({"last_fallbacks"})

    #: Fallback counters of the most recent :meth:`fracture` call.
    last_fallbacks: KernelFallbacks = KernelFallbacks()

    @abc.abstractmethod
    def fracture(self, polygons: Iterable[Polygon]) -> Sequence[Trapezoid]:
        """Decompose ``polygons`` into disjoint machine figures.

        Implementations must return figures that are disjoint and whose
        union equals (or, for grid-approximating fracturers, approximates)
        the union of the input polygons.
        """

    def fracture_to_shots(
        self, polygons: Iterable[Polygon], dose: float = 1.0
    ) -> ShotView:
        """Fracture and dose every figure: the figures' block plus a
        constant dose column."""
        return dosed(self.fracture(polygons), dose)


def total_area(figures: Sequence[Trapezoid]) -> float:
    """Sum of figure areas (disjointness makes this the covered area)."""
    return sum(t.area() for t in figures)
