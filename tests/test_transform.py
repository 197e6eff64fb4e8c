"""Tests for repro.geometry.transform."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.transform import Transform, compose, identity_rows


class TestConstructors:
    def test_identity(self):
        t = Transform.identity()
        assert t.is_identity()
        assert t(Point(3, 4)) == Point(3, 4)

    def test_translation(self):
        t = Transform.translation(2, -1)
        assert t(Point(1, 1)) == Point(3, 0)

    def test_rotation_quarter_turn(self):
        t = Transform.rotation(math.pi / 2)
        assert t(Point(1, 0)).almost_equals(Point(0, 1))

    def test_rotation_about_point(self):
        t = Transform.rotation(math.pi, about=(1, 1))
        assert t(Point(2, 1)).almost_equals(Point(0, 1))

    def test_scaling_isotropic(self):
        t = Transform.scaling(2)
        assert t(Point(1, 2)) == Point(2, 4)

    def test_scaling_anisotropic(self):
        t = Transform.scaling(2, 3)
        assert t(Point(1, 1)) == Point(2, 3)

    def test_mirror_x(self):
        assert Transform.mirror_x()(Point(1, 2)) == Point(1, -2)


class TestGdsiiOrder:
    def test_gdsii_reflection_applied_before_rotation(self):
        # Mirror then rotate 90: (1, 0) -> (1, 0) -> (0, 1)
        t = Transform.gdsii(rotation_deg=90, x_reflection=True)
        assert t(Point(1, 0)).almost_equals(Point(0, 1))
        # (0, 1) -> mirrored (0, -1) -> rotated (1, 0)
        assert t(Point(0, 1)).almost_equals(Point(1, 0))

    def test_gdsii_full_stack(self):
        t = Transform.gdsii(
            origin=(10, 20), rotation_deg=90, magnification=2, x_reflection=False
        )
        assert t(Point(1, 0)).almost_equals(Point(10, 22))

    def test_gdsii_identity_default(self):
        assert Transform.gdsii().is_identity()


class TestComposition:
    def test_matmul_order(self):
        t = Transform.translation(1, 0) @ Transform.rotation(math.pi / 2)
        # Rotation first, then translation.
        assert t(Point(1, 0)).almost_equals(Point(1, 1))

    def test_determinant_of_mirror_negative(self):
        assert Transform.mirror_x().determinant() == -1.0
        assert not Transform.mirror_x().is_orientation_preserving()

    def test_magnification(self):
        t = Transform.gdsii(magnification=2.5)
        assert math.isclose(t.magnification(), 2.5)


class TestIntrospection:
    def test_apply_many(self):
        t = Transform.translation(1, 1)
        pts = t.apply_many([(0, 0), (1, 1)])
        assert pts == [Point(1, 1), Point(2, 2)]

    def test_equality_and_hash(self):
        a = Transform.translation(1, 2)
        b = Transform.translation(1, 2)
        assert a == b
        assert hash(a) == hash(b)


class TestUndoing:
    """A transform composed with its opposite is the identity."""

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, math.pi, -2.0])
    def test_rotation_then_back(self, angle):
        t = Transform.rotation(-angle) @ Transform.rotation(angle)
        assert t.is_identity(tol=1e-12)

    def test_translations_add(self):
        t = Transform.translation(1, 2) @ Transform.translation(3, -4)
        assert t == Transform.translation(4, -2)

    def test_mirror_twice_is_identity(self):
        assert (Transform.mirror_x() @ Transform.mirror_x()).is_identity()

    def test_scaling_then_inverse_scaling(self):
        t = Transform.scaling(4.0, 0.5) @ Transform.scaling(0.25, 2.0)
        assert t.is_identity()

    def test_half_turn_after_mirror_x_mirrors_about_y_axis(self):
        t = Transform.rotation(math.pi) @ Transform.mirror_x()
        assert t(Point(3, 2)).almost_equals(Point(-3, 2))
        assert t.determinant() == pytest.approx(-1.0)


def as_row(t):
    return np.array([t.a, t.b, t.c, t.d, t.e, t.f])


class TestAffineRows:
    def test_compose_matches_matmul_bit_for_bit(self):
        outer = Transform.gdsii(origin=(3.5, -1.25), rotation_deg=90, x_reflection=True)
        inner = Transform.rotation(0.7) @ Transform.translation(0.1, 0.2)
        got = compose(as_row(outer), as_row(inner))
        assert got.tobytes() == as_row(outer @ inner).tobytes()

    def test_compose_broadcasts_over_placements(self):
        inner = as_row(Transform.rotation(1.1))
        outers = np.stack([as_row(Transform.translation(x, 0)) for x in range(4)])
        got = compose(outers, inner)
        assert got.shape == (4, 6)
        for x in range(4):
            want = Transform.translation(x, 0) @ Transform.rotation(1.1)
            assert got[x].tobytes() == as_row(want).tobytes()

    def test_identity_rows_agrees_with_is_identity(self):
        transforms = [
            Transform.identity(),
            Transform.rotation(2 * math.pi),
            Transform.translation(1e-13, 0),
            Transform.translation(1e-9, 0),
            Transform.mirror_x(),
        ]
        rows = np.stack([as_row(t) for t in transforms])
        assert identity_rows(rows).tolist() == [t.is_identity() for t in transforms]
