"""Affine transforms in the GDSII convention.

A GDSII structure reference applies, in order:

1. optional mirroring about the x axis (``x_reflection``),
2. magnification,
3. counter-clockwise rotation,
4. translation.

:class:`Transform` stores the full 2x3 affine matrix so arbitrary affine maps
compose correctly, while the convenience constructors mirror the GDSII
parameterization used by :class:`repro.layout.reference.CellReference`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point


class Transform:
    """A 2-D affine transform ``p' = M p + t``.

    The matrix is stored row-major as ``(a, b, c, d)`` with translation
    ``(e, f)``::

        x' = a*x + b*y + e
        y' = c*x + d*y + f
    """

    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(
        self,
        a: float = 1.0,
        b: float = 0.0,
        c: float = 0.0,
        d: float = 1.0,
        e: float = 0.0,
        f: float = 0.0,
    ) -> None:
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.d = float(d)
        self.e = float(e)
        self.f = float(f)

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls) -> "Transform":
        """The identity transform."""
        return cls()

    @classmethod
    def translation(cls, dx: float, dy: float) -> "Transform":
        """Pure translation by ``(dx, dy)``."""
        return cls(1.0, 0.0, 0.0, 1.0, dx, dy)

    @classmethod
    def rotation(
        cls, angle_rad: float, about: Point | Tuple[float, float] | None = None
    ) -> "Transform":
        """Counter-clockwise rotation by ``angle_rad`` about ``about``."""
        cos_a, sin_a = math.cos(angle_rad), math.sin(angle_rad)
        t = cls(cos_a, -sin_a, sin_a, cos_a, 0.0, 0.0)
        if about is not None:
            origin = Point.of(about)
            t = (
                cls.translation(origin.x, origin.y)
                @ t
                @ cls.translation(-origin.x, -origin.y)
            )
        return t

    @classmethod
    def scaling(cls, sx: float, sy: float | None = None) -> "Transform":
        """Scaling by ``sx`` (and ``sy``; isotropic if ``sy`` omitted)."""
        if sy is None:
            sy = sx
        return cls(sx, 0.0, 0.0, sy, 0.0, 0.0)

    @classmethod
    def mirror_x(cls) -> "Transform":
        """Reflection about the x axis (GDSII ``x_reflection``)."""
        return cls(1.0, 0.0, 0.0, -1.0, 0.0, 0.0)

    @classmethod
    def mirror_y(cls) -> "Transform":
        """Reflection about the y axis."""
        return cls(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @classmethod
    def gdsii(
        cls,
        origin: Point | Tuple[float, float] = (0.0, 0.0),
        rotation_deg: float = 0.0,
        magnification: float = 1.0,
        x_reflection: bool = False,
    ) -> "Transform":
        """Build a transform from GDSII reference parameters.

        Applies x-reflection first, then magnification, then rotation, then
        translation to ``origin`` — the order GDSII viewers use.
        """
        t = cls.identity()
        if x_reflection:
            t = cls.mirror_x() @ t
        if magnification != 1.0:
            t = cls.scaling(magnification) @ t
        if rotation_deg != 0.0:
            t = cls.rotation(math.radians(rotation_deg)) @ t
        ox, oy = Point.of(origin).as_tuple()
        if ox != 0.0 or oy != 0.0:
            t = cls.translation(ox, oy) @ t
        return t

    # -- application ---------------------------------------------------

    def apply(self, point: Point | Tuple[float, float]) -> Point:
        """Transform a single point."""
        p = Point.of(point)
        return Point(
            self.a * p.x + self.b * p.y + self.e,
            self.c * p.x + self.d * p.y + self.f,
        )

    def __call__(self, point: Point | Tuple[float, float]) -> Point:
        return self.apply(point)

    def apply_many(
        self, points: Iterable[Point | Tuple[float, float]]
    ) -> List[Point]:
        """Transform an iterable of points."""
        return [self.apply(p) for p in points]

    def apply_vector(self, vector: Point | Tuple[float, float]) -> Point:
        """Transform a free vector (ignores translation)."""
        v = Point.of(vector)
        return Point(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    # -- composition -----------------------------------------------------

    def __matmul__(self, other: "Transform") -> "Transform":
        """``(self @ other)(p) == self(other(p))``."""
        return Transform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.a * other.e + self.b * other.f + self.e,
            self.c * other.e + self.d * other.f + self.f,
        )

    def determinant(self) -> float:
        """Determinant of the linear part (negative for mirrored frames)."""
        return self.a * self.d - self.b * self.c

    def is_orientation_preserving(self) -> bool:
        """True if the transform keeps polygon winding direction."""
        return self.determinant() > 0.0

    def inverse(self) -> "Transform":
        """The inverse transform.

        Raises:
            ZeroDivisionError: if the transform is singular.
        """
        det = self.determinant()
        if det == 0.0:
            raise ZeroDivisionError("transform is singular")
        ia = self.d / det
        ib = -self.b / det
        ic = -self.c / det
        id_ = self.a / det
        ie = -(ia * self.e + ib * self.f)
        if_ = -(ic * self.e + id_ * self.f)
        return Transform(ia, ib, ic, id_, ie, if_)

    # -- introspection ---------------------------------------------------

    def is_identity(self, tol: float = 1e-12) -> bool:
        """True if the transform is the identity within ``tol``."""
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d - 1.0) <= tol
            and abs(self.e) <= tol
            and abs(self.f) <= tol
        )

    def is_axis_aligned(self, tol: float = 1e-12) -> bool:
        """True for transforms that map axis-parallel edges to axis-parallel
        edges (rotations by multiples of 90 degrees, mirrors, scalings)."""
        return (abs(self.b) <= tol and abs(self.c) <= tol) or (
            abs(self.a) <= tol and abs(self.d) <= tol
        )

    def magnification(self) -> float:
        """Isotropic magnification ``sqrt(|det|)``."""
        return math.sqrt(abs(self.determinant()))

    def as_matrix(self) -> Sequence[Sequence[float]]:
        """Return the transform as a 3x3 nested-sequence matrix."""
        return (
            (self.a, self.b, self.e),
            (self.c, self.d, self.f),
            (0.0, 0.0, 1.0),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transform):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
            and self.e == other.e
            and self.f == other.f
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d, self.e, self.f))

    def __repr__(self) -> str:
        return (
            f"Transform(a={self.a}, b={self.b}, c={self.c}, "
            f"d={self.d}, e={self.e}, f={self.f})"
        )


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Row-wise ``outer @ inner`` over arrays of affine rows.

    ``outer`` and ``inner`` hold rows ``(a, b, c, d, e, f)`` along their
    last axis and broadcast against each other.  Each result row is
    ``Transform(*outer_row) @ Transform(*inner_row)`` bit for bit: the
    same products and sums in the same order as
    :meth:`Transform.__matmul__`.
    """
    a, b, c, d, e, f = np.moveaxis(outer, -1, 0)
    p, q, r, s, t, u = np.moveaxis(inner, -1, 0)
    return np.stack(
        (
            a * p + b * r,
            a * q + b * s,
            c * p + d * r,
            c * q + d * s,
            a * t + b * u + e,
            c * t + d * u + f,
        ),
        axis=-1,
    )
