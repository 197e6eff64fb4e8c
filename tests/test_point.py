"""Tests for repro.geometry.point."""

import math

import pytest

from repro.geometry.point import Point


class TestConstruction:
    def test_coerces_to_float(self):
        p = Point(1, 2)
        assert isinstance(p.x, float)
        assert isinstance(p.y, float)

    def test_of_passes_through_point(self):
        p = Point(1, 2)
        assert Point.of(p) is p

    def test_of_accepts_tuple(self):
        assert Point.of((3, 4)) == Point(3, 4)

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5.0

    def test_iteration_and_indexing(self):
        p = Point(1, 2)
        assert list(p) == [1.0, 2.0]
        assert p[0] == 1.0
        assert p[1] == 2.0
        assert len(p) == 2


class TestArithmetic:
    def test_addition(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_addition_with_tuple(self):
        assert Point(1, 2) + (3, 4) == Point(4, 6)

    def test_subtraction(self):
        assert Point(5, 5) - Point(2, 3) == Point(3, 2)

    def test_rsub(self):
        assert (5, 5) - Point(2, 3) == Point(3, 2)

    def test_scalar_multiplication_both_sides(self):
        assert 2 * Point(1, 2) == Point(2, 4)
        assert Point(1, 2) * 2 == Point(2, 4)

    def test_division(self):
        assert Point(4, 6) / 2 == Point(2, 3)

    def test_negation(self):
        assert -Point(1, -2) == Point(-1, 2)


class TestGeometry:
    def test_cross_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0

    def test_norm(self):
        assert Point(3, 4).norm() == 5.0

    def test_distance(self):
        assert Point(0, 0).distance(Point(3, 4)) == 5.0

    def test_unit(self):
        u = Point(3, 4).unit()
        assert math.isclose(u.norm(), 1.0)

    def test_unit_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Point(0.0, 0.0).unit()

    def test_rotated_quarter_turn(self):
        r = Point(1, 0).rotated(math.pi / 2)
        assert r.almost_equals(Point(0, 1))

    def test_rotated_about_center(self):
        r = Point(2, 1).rotated(math.pi, about=Point(1, 1))
        assert r.almost_equals(Point(0, 1))

    def test_angle(self):
        assert math.isclose(Point(0, 1).angle(), math.pi / 2)


class TestEquality:
    def test_equality_with_tuple(self):
        assert Point(1, 2) == (1, 2)

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_almost_equals_tolerance(self):
        assert Point(1, 2).almost_equals(Point(1 + 1e-12, 2), tol=1e-9)
        assert not Point(1, 2).almost_equals(Point(1.1, 2), tol=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("angle", [0.0, 0.4, math.pi / 3, -2.5])
    def test_rotation_keeps_norm_and_turns_angle(self, angle):
        p = Point(3, 4)
        r = p.rotated(angle)
        assert math.isclose(r.norm(), 5.0)
        assert math.isclose(p.cross(r), 25.0 * math.sin(angle), abs_tol=1e-12)

    def test_cross_is_antisymmetric(self):
        p, q = Point(1.5, -2), Point(0.25, 3)
        assert p.cross(q) == -q.cross(p)
        assert p.cross(p) == 0.0

    def test_distance_is_symmetric(self):
        p, q = Point(1.5, -2), Point(0.25, 3)
        assert p.distance(q) == q.distance(p) == (p - q).norm()
