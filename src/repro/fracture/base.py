"""Fracturer interface and the Shot record.

A shot has two forms.  :class:`Shot` objects are the API type — what
fracturers return and correctors rewrite.  Beneath them every consumer
that walks a whole shot list (digests, the ``.ebj``/``.ebp`` packers,
shard payloads, cache keys, PEC's field arrays) reads one ``(N, 7)``
float64 block: the six :data:`~repro.geometry.vertex_array.TRAP_COLUMNS`
plus the dose, one row per shot in shot order
(:func:`shot_rows`/:func:`shots_from_rows`).
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import trapezoid_array, trapezoids_from_array


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

    def with_dose(self, dose: float) -> "Shot":
        """Copy with a new dose factor."""
        return Shot(self.trapezoid, dose)

    def __repr__(self) -> str:
        return f"Shot({self.trapezoid!r}, dose={self.dose:g})"


def shot_rows(shots: Sequence[Shot]) -> np.ndarray:
    """The ``(N, 7)`` float64 block of a shot list:
    :func:`~repro.geometry.vertex_array.trapezoid_array` plus the dose
    column."""
    return np.column_stack(
        (trapezoid_array(s.trapezoid for s in shots), [s.dose for s in shots])
    )


def shots_from_rows(rows: np.ndarray) -> List[Shot]:
    """Rebuild the :class:`Shot` list of an ``(N, 7)`` block.

    Raises:
        ValueError: the block is not a shot list — a non-finite value
            (checked here; nothing downstream rejects a NaN), or one of
            the invariants :class:`Trapezoid` and :class:`Shot` enforce.
            Readers of bytes from outside the program turn this into
            their own error.
    """
    if not np.isfinite(rows).all():
        raise ValueError("non-finite coordinate or dose")
    return [
        Shot(trapezoid, dose)
        for trapezoid, dose in zip(
            trapezoids_from_array(rows[:, :6]), rows[:, 6].tolist()
        )
    ]


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
    def fracture(self, polygons: Iterable[Polygon]) -> List[Trapezoid]:
        """Decompose ``polygons`` into disjoint machine figures.

        Implementations must return figures that are disjoint and whose
        union equals (or, for grid-approximating fracturers, approximates)
        the union of the input polygons.
        """

    def fracture_to_shots(
        self, polygons: Iterable[Polygon], dose: float = 1.0
    ) -> List[Shot]:
        """Fracture and wrap each figure in a :class:`Shot`."""
        return [Shot(t, dose) for t in self.fracture(polygons)]


def total_area(figures: Sequence[Trapezoid]) -> float:
    """Sum of figure areas (disjointness makes this the covered area)."""
    return sum(t.area() for t in figures)
