"""Tests for polygon offsetting (sizing)."""

import math

import pytest

from repro.geometry.boolean import boolean_polygons, union
from repro.geometry.offset import offset
from repro.geometry.polygon import Polygon


def net_area(polys):
    return sum(p.signed_area() for p in polys)


class TestGrow:
    def test_square_grows_exactly(self):
        grown = offset(Polygon.rectangle(0, 0, 10, 10), 1.0)
        assert net_area(grown) == pytest.approx(144.0)

    def test_grow_zero_is_identity(self):
        same = offset(Polygon.rectangle(0, 0, 10, 10), 0.0)
        assert net_area(same) == pytest.approx(100.0)

    def test_triangle_grow_bounds(self):
        tri = Polygon([(0, 0), (10, 0), (5, 8)])
        grown = offset(tri, 0.5)
        perimeter = 10 + 2 * math.hypot(5, 8)
        lower = tri.area() + perimeter * 0.5
        upper = lower + 4 * 0.5 * 0.5 * 3  # miter corners bound
        assert lower <= net_area(grown) <= upper

    def test_growth_contains_original(self):
        poly = Polygon([(0, 0), (8, 0), (8, 3), (4, 3), (4, 6), (0, 6)])
        grown = offset(poly, 0.4)
        # Original minus grown must be empty.
        remains = boolean_polygons([poly], grown, "sub")
        assert net_area(remains) == pytest.approx(0.0, abs=1e-6)

    def test_close_shapes_merge(self):
        two = [Polygon.rectangle(0, 0, 4, 4), Polygon.rectangle(5, 0, 9, 4)]
        merged = offset(two, 0.75)
        assert len([p for p in merged if p.signed_area() > 0]) == 1

    def test_cw_input_handled(self):
        cw = Polygon([(0, 0), (0, 10), (10, 10), (10, 0)])
        # offset() routes through the boolean engine, which normalizes.
        grown = offset(cw.normalized(), 1.0)
        assert net_area(grown) == pytest.approx(144.0)


class TestShrink:
    def test_square_shrinks_exactly(self):
        shrunk = offset(Polygon.rectangle(0, 0, 10, 10), -1.0)
        assert net_area(shrunk) == pytest.approx(64.0)

    def test_thin_feature_vanishes(self):
        line = Polygon.rectangle(0, 0, 0.5, 20)
        assert net_area(offset(line, -1.0)) == pytest.approx(0.0)

    def test_shrink_contained_in_original(self):
        poly = Polygon([(0, 0), (8, 0), (8, 3), (4, 3), (4, 6), (0, 6)])
        shrunk = offset(poly, -0.4)
        outside = boolean_polygons(shrunk, [poly], "sub")
        assert net_area(outside) == pytest.approx(0.0, abs=1e-6)

    def test_l_shape_arm_collapse(self):
        # L with a 1-wide arm: shrinking by 0.6 removes the arm.
        l_shape = Polygon([(0, 0), (6, 0), (6, 1), (1, 1), (1, 6), (0, 6)])
        shrunk = offset(l_shape, -0.6)
        assert net_area(shrunk) == pytest.approx(0.0, abs=1e-6)

    def test_grow_then_shrink_of_convex_is_identity(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        roundtrip = offset(offset(square, 1.0), -1.0)
        assert net_area(roundtrip) == pytest.approx(100.0, rel=1e-6)

    def test_opening_removes_slivers(self):
        # Morphological opening: shrink then grow removes thin spurs but
        # restores the bulk feature.
        base = union(
            [
                Polygon.rectangle(0, 0, 10, 10),
                Polygon.rectangle(10, 4.8, 20, 5.0),  # 0.2-wide spur
            ]
        )
        opened = offset(offset(base, -0.3), 0.3)
        assert net_area(opened) == pytest.approx(100.0, rel=1e-6)


class TestHoles:
    @pytest.fixture
    def donut(self):
        return boolean_polygons(
            [Polygon.rectangle(0, 0, 10, 10)],
            [Polygon.rectangle(3, 3, 7, 7)],
            "sub",
        )

    def test_grow_shrinks_hole(self, donut):
        grown = offset(donut, 1.0)
        # Outer 12x12, hole 2x2.
        assert net_area(grown) == pytest.approx(144.0 - 4.0)

    def test_shrink_grows_hole(self, donut):
        shrunk = offset(donut, -1.0)
        # Outer 8x8, hole 6x6.
        assert net_area(shrunk) == pytest.approx(64.0 - 36.0)

    def test_grow_past_hole_closes_it(self, donut):
        grown = offset(donut, 2.5)
        assert net_area(grown) == pytest.approx(15.0 * 15.0)
