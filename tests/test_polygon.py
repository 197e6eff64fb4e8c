"""Tests for repro.geometry.polygon."""

import math

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform


@pytest.fixture
def unit_square():
    return Polygon.rectangle(0, 0, 1, 1)


@pytest.fixture
def triangle():
    return Polygon([(0, 0), (4, 0), (0, 3)])


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_strips_explicit_closure(self):
        p = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(p) == 3

    def test_rectangle_normalizes_corners(self):
        p = Polygon.rectangle(5, 5, 0, 0)
        assert p.bounding_box() == (0, 0, 5, 5)

    def test_square(self):
        p = Polygon.square((1, 1), 2)
        assert p.bounding_box() == (0, 0, 2, 2)

    def test_annulus_sector_area(self):
        p = Polygon.annulus_sector((0, 0), 1.0, 2.0, 0, math.pi, 256)
        expected = math.pi * (4 - 1) / 2
        assert math.isclose(p.area(), expected, rel_tol=1e-3)

    def test_annulus_sector_validates_radii(self):
        with pytest.raises(ValueError):
            Polygon.annulus_sector((0, 0), 2.0, 1.0, 0, 1.0)

    def test_from_path_straight_wire(self):
        p = Polygon.from_path([(0, 0), (10, 0)], width=2)
        assert math.isclose(p.area(), 20.0)

    def test_from_path_l_bend_area(self):
        p = Polygon.from_path([(0, 0), (10, 0), (10, 10)], width=2)
        # Two 2x10 arms sharing a mitred corner: exactly 40 µm².
        assert math.isclose(p.area(), 40.0, rel_tol=1e-9)

    def test_from_path_needs_width(self):
        with pytest.raises(ValueError):
            Polygon.from_path([(0, 0), (1, 0)], width=0)


class TestMeasures:
    def test_signed_area_ccw_positive(self, unit_square):
        assert unit_square.signed_area() == 1.0

    def test_signed_area_cw_negative(self):
        p = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert p.signed_area() == -1.0

    def test_triangle_area(self, triangle):
        assert triangle.area() == 6.0

    def test_centroid_of_square(self, unit_square):
        assert unit_square.centroid().almost_equals(Point(0.5, 0.5))

    def test_centroid_of_triangle(self, triangle):
        assert triangle.centroid().almost_equals(Point(4 / 3, 1.0))

    def test_orientation(self, unit_square):
        assert unit_square.orientation() == 1
        reversed_sq = Polygon(list(reversed(unit_square.vertices)))
        assert reversed_sq.orientation() == -1


class TestPredicates:
    def test_contains_interior_point(self, unit_square):
        assert unit_square.contains_point((0.5, 0.5))

    def test_excludes_exterior_point(self, unit_square):
        assert not unit_square.contains_point((2, 2))

    def test_boundary_point_included_by_default(self, unit_square):
        assert unit_square.contains_point((0.5, 0))

    def test_boundary_point_excludable(self, unit_square):
        assert not unit_square.contains_point((0.5, 0), include_boundary=False)

    def test_concave_containment(self):
        # L-shape: notch at top right.
        p = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        assert p.contains_point((1, 3))
        assert not p.contains_point((3, 3))


class TestOperations:
    def test_normalized_rewinds_ccw(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert cw.normalized().orientation() == 1

    def test_normalized_removes_duplicates(self):
        p = Polygon([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1)])
        assert len(p.normalized()) == 4

    def test_simplified_removes_collinear(self):
        p = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p.simplified()) == 4

    def test_transformed_preserves_area(self, triangle):
        t = Transform.gdsii(origin=(5, 5), rotation_deg=30)
        assert math.isclose(triangle.transformed(t).area(), 6.0)

    def test_transformed_mirror_keeps_valid_winding(self, triangle):
        mirrored = triangle.transformed(Transform.mirror_x())
        assert mirrored.orientation() == triangle.orientation()

    def test_translated(self, unit_square):
        p = unit_square.translated(10, 20)
        assert p.bounding_box() == (10, 20, 11, 21)

    def test_scaled_about_point(self, unit_square):
        p = unit_square.scaled(2, about=(0.5, 0.5))
        assert p.bounding_box() == (-0.5, -0.5, 1.5, 1.5)

    def test_rotated_area_invariant(self, triangle):
        assert math.isclose(triangle.rotated(1.0).area(), 6.0)


SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
DIAMOND = Polygon([(5, 0), (10, 5), (5, 10), (0, 5)])


class TestContainmentCases:
    """Nonzero-winding containment on the cases the scanline ray meets:
    edges, vertices, and rays through a vertex."""

    @pytest.mark.parametrize(
        "point, inside",
        [
            ((5, 5), True),
            ((15, 5), False),
            ((-5, 5), False),
            ((5, 0), True),
            ((0, 0), True),
            ((10, 10), True),
            ((15, 0), False),
            ((5, 15), False),
        ],
    )
    def test_square(self, point, inside):
        assert SQUARE.contains_point(point) is inside

    @pytest.mark.parametrize("point", [(5, 0), (0, 0), (10, 4), (0, 10)])
    def test_square_boundary_excludable(self, point):
        assert not SQUARE.contains_point(point, include_boundary=False)

    def test_clockwise_ring_still_contains(self):
        cw = Polygon(list(reversed(SQUARE.vertices)))
        assert cw.orientation() == -1
        assert cw.contains_point((5, 5))

    @pytest.mark.parametrize(
        "point, inside", [((2, 5), True), ((11, 5), False), ((-1, 5), False)]
    )
    def test_ray_through_a_vertex(self, point, inside):
        # The rightward ray from y = 5 passes the diamond's vertex (10, 5).
        assert DIAMOND.contains_point(point) is inside
